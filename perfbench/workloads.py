"""The benchmark's workloads: inputs drawn from a seed, items run through
whitdim's public functions, and checks on every output.

Inputs are generated with plain integer arithmetic before the timed phase,
so the program sees only the generated parameters.  Every program call goes
through an attribute of the ``whitdim`` package or of ``whitdim.cli``, so
the traced run reaches it through the wrappers of ``spans.instrument``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import traceback
from array import array
from collections import Counter
from fractions import Fraction
from math import gcd
from time import perf_counter

import whitdim as wd
from whitdim import cli

from spans import BENCH_ITEM


class Item:
    """One timed item.  ``units`` is how many items of the workload it
    completes and ``failed`` how many of those failed; an exception inside
    the item fails all its units.  Gauge runs that fell inside the item are
    taken out of its latency."""

    __slots__ = ("clock", "start", "units", "failed", "span", "gauges")

    def __init__(self, clock, units):
        self.clock, self.units, self.failed = clock, units, 0

    def __enter__(self):
        clock = self.clock
        if clock.tracer is not None:
            self.span = clock.tracer.open(clock.item_name)
        self.gauges = len(clock.gauge_start)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        clock = self.clock
        if clock.tracer is not None:
            clock.tracer.close(self.span)
        swallow = exc_type is not None and issubclass(exc_type, Exception)
        if swallow:
            self.failed = self.units
            clock.errors += 1
            if clock.errors <= 3:
                traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
        clock.latencies.append(end - self.start - clock.gauged_within(self.gauges, self.start, end))
        clock.attempted += self.units
        clock.failed += self.failed
        if clock.window_s is not None and end - clock.window_start >= clock.window_s:
            clock.cut()
        return swallow


#: Time ``gauge()`` takes on the reference host: the usual speed of the
#: 2-vCPU machine the benchmark was written on, under Python 3.11.7.
GAUGE_REFERENCE_S = 0.012
#: How whitdim's speed follows the gauge's on that machine: the slope of
#: log throughput on log gauge time over 115 runs of the three workloads
#: was 0.68 to 0.80 (the gauge swings more than the program does).
GAUGE_ELASTICITY = 0.7


def host_factor(gauge_s):
    """Multiplier that takes a time measured while ``gauge()`` took
    ``gauge_s`` to the reference host."""
    return (GAUGE_REFERENCE_S / gauge_s) ** GAUGE_ELASTICITY
#: How often the gauge runs during a gauged timed phase.
GAUGE_PERIOD_S = 0.5


def gauge():
    """A fixed stretch of pure-Python work that shares no code with whitdim
    (integers, tuples, a set, Fractions); its time says how fast the host
    runs the interpreter at that moment."""
    seen = set()
    for i in range(1, 2401):
        row = tuple(i * j % 97 for j in range(6))
        seen.add(row)
        Fraction(i, 97) + Fraction(3, i + 1)


def time_gauge():
    start = perf_counter()
    gauge()
    return perf_counter() - start


class Clock:
    """Runs items until ``seconds`` have passed, or exactly ``limit`` items.
    Latencies are kept in a float array, so that the benchmark's own memory
    barely grows with the number of items a run completes.

    The timed phase is cut into windows: every ``window_s`` seconds, or
    wherever the workload calls ``cut`` (at the end of a block of inputs
    with a fixed mix).  A window is (start, end, first item, end item,
    units completed).  ``windows`` holds the complete windows and
    ``segments`` also the one still open at the deadline, whose items count
    as attempted.

    When ``gauged``, a real-time interval timer runs ``gauge()`` every
    ``GAUGE_PERIOD_S`` seconds, from a signal handler in this thread, and
    records when each run started and ended.  Those intervals are taken
    out of item latencies and window lengths."""

    def __init__(self, seconds, limit=None, tracer=None, window_s=None, gauged=False):
        self.seconds, self.limit, self.tracer = seconds, limit, tracer
        self.window_s, self.gauged = window_s, gauged
        self.latencies = array("f")
        self.windows = []
        self.gauge_start = array("d")
        self.gauge_end = array("d")
        self.attempted = self.failed = self.errors = 0
        if tracer is not None:
            self.item_name = tracer.name_id(BENCH_ITEM)

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        gauge()
        self.gauge_start.append(start)
        self.gauge_end.append(perf_counter())

    def gauged_within(self, first, start, end):
        """Time of the gauge runs from the ``first``-th on that overlaps
        [start, end]."""
        return sum(max(0.0, min(end, self.gauge_end[k]) - max(start, self.gauge_start[k]))
                   for k in range(first, len(self.gauge_end)))

    def begin(self):
        self.t0 = perf_counter()
        self.deadline = self.t0 + self.seconds
        self._open_window()
        if self.gauged:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def _open_window(self):
        self.window_start = perf_counter()
        self.window_first = len(self.latencies)
        self.window_units = self.attempted

    def _close_window(self):
        return (self.window_start, perf_counter(), self.window_first, len(self.latencies),
                self.attempted - self.window_units)

    def cut(self):
        """Close the current window and open the next."""
        window = self._close_window()
        if window[3] > window[2]:
            self.windows.append(window)
        self._open_window()

    def more(self):
        if self.limit is not None:
            return len(self.latencies) < self.limit
        return perf_counter() < self.deadline

    def item(self, units=1):
        return Item(self, units)

    def finish(self):
        """End the timed phase; ``wall`` leaves out the time spent gauging."""
        last = self._close_window()
        if self.gauged:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            if not self.gauge_start:  # a phase shorter than one period
                self._on_alarm(None, None)
        self.segments = self.windows + ([last] if last[3] > last[2] else [])
        self.wall = perf_counter() - self.t0 - self.gauged_within(0, self.t0, perf_counter())


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def general_position(r, q, a):
    """a * (q^s - 1) != 0 mod q^r - 1 for 0 < s < r, in plain integers."""
    modulus = q ** r - 1
    return all(a * (q ** s - 1) % modulus for s in range(1, r))


def short_digest(value):
    return hashlib.blake2b(repr(value).encode(), digest_size=4).hexdigest()


class Workload:
    """Inputs drawn from a seed in ``__init__``; ``run`` times items on a
    clock; ``finish`` runs the checks that need the whole timed phase."""

    #: Output digests compared with those recorded for the seed, or None.
    digests = None
    #: Length of a timing window in seconds; None when the workload cuts
    #: its windows itself.
    window_s = None

    def finish(self, clock):
        pass

    def counters(self):
        """Per-layer counts the workload derives from its own outputs."""
        return {}


# ---------------------------------------------------------------------------
# sweep: the acceptance-sweep space, one parameter per item

SWEEP_R = (1, 2, 3)
SWEEP_Q = (3, 5, 7, 13)
SWEEP_FORMS = tuple((pp, qq) for pp in range(-2, 3) for qq in range(-2, 3))


class Sweep(Workload):
    """Covers drawn without repeats from the acceptance-sweep space; each
    brings all its general-position Coxeter exponents.  Item: one parameter
    through the closed form, the oracle, the Coxeter parameter and
    ``y_x_rho``; the first item of a cover also builds it and its bounds.

    The parameter budget is the whole space, 403,600 parameters.  Covers
    come in 25 rounds; each round holds one form of every (r, q, n), so any
    prefix of a run has the parameter mix of the whole space and the seed
    decides only the order of forms and of covers within a round.  A
    window is one second, about 5,000 parameters."""

    #: Taken in each window (about 60 samples beyond it), see README.md.
    tail_percentile = 99.0
    window_s = 1.0

    def __init__(self, seed):
        rng = random.Random(seed)
        strata = [(r, q, n) for r in SWEEP_R for q in SWEEP_Q for n in divisors(q - 1)]
        forms = {stratum: rng.sample(SWEEP_FORMS, len(SWEEP_FORMS)) for stratum in strata}
        self.covers = []
        for k in range(len(SWEEP_FORMS)):
            rng.shuffle(strata)
            self.covers.extend((r, q, n, *forms[r, q, n][k]) for r, q, n in strata)
        self.exponents = {(r, q): [a for a in range(q ** r - 1) if general_position(r, q, a)]
                          for r in SWEEP_R for q in SWEEP_Q}

    def run(self, clock):
        for r, q, n, pp, qq in self.covers:
            cover = None
            for a in self.exponents[r, q]:
                if not clock.more():
                    return
                with clock.item() as item:
                    if cover is None:
                        cover = wd.glr_cover(r, pp, qq, n, q)
                        lower, upper = wd.squeeze_bounds(cover)
                    closed = wd.wh_dim_glr_closed(r, q, n, pp, qq, a)
                    oracle = wd.wh_dim_oracle(r, q, n, pp, qq, a)
                    param = wd.glr_coxeter_parameter(r, q, a, n)
                    _, orbit = wd.y_x_rho(cover, param)
                    if not (closed == oracle == orbit
                            and closed % lower == 0 and upper % closed == 0):
                        item.failed = 1


# ---------------------------------------------------------------------------
# table: `whitdim table --format json` in process, one round = two calls

TABLE_R, TABLE_Q = 2, 499
#: Rows per call rechecked with the oracle after the timed phase.
TABLE_SAMPLE = 40


class Table(Workload):
    """Two in-process ``whitdim table`` calls per round over GL_2, q = 499:
    the worst case n = q - 1 with gcd(m, n) = 1, and a small n with the
    same form.  Item: one general-position class emitted; latency is timed
    per round, since a class is not timed alone.  A window is one round."""

    tail_percentile = 100.0

    def __init__(self, seed):
        rng = random.Random(seed)
        n_max = TABLE_Q - 1
        while True:
            pp, qq = rng.randint(-3, 3), rng.randint(-3, 3)
            if gcd(2 * pp + (TABLE_R - 1) * qq, n_max) == 1:
                break
        self.form = (pp, qq)
        self.degrees = (n_max, rng.choice([d for d in divisors(n_max) if 1 < d <= 6]))
        self.argv = [["table", "--r", str(TABLE_R), "--q", str(TABLE_Q), "--n", str(n),
                      "--pp", str(pp), "--qq", str(qq), "--format", "json"]
                     for n in self.degrees]
        self.sample_rng = random.Random(seed + 1)
        self.first = self.reference = None
        self.rounds = []
        self.classes = 0

    def run(self, clock):
        while clock.more():
            outputs = []
            errors = clock.errors
            with clock.item(units=0):
                for argv in self.argv:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                    outputs.append((code, buf.getvalue()))
            clock.cut()
            if clock.errors != errors:
                self.rounds.append(None)
                continue
            calls = [(code, hashlib.sha256(out.encode()).hexdigest(), len(out))
                     for code, out in outputs]
            if self.first is None:
                self.first, self.reference = outputs, calls
            self.rounds.append(calls)

    def finish(self, clock):
        """Check the first complete round in full and every other round
        against its stdout.  Each round completes the classes it emitted; a
        round that raised or printed other bytes fails them all."""
        if self.reference is None:
            clock.attempted += len(self.rounds)
            clock.failed += len(self.rounds)
            return
        classes, failed = self._check_first()
        self.digests = [digest for _, digest, _ in self.reference]
        clock.windows = [(*window[:4], classes) for window in clock.windows]
        clock.attempted += classes * len(self.rounds)
        clock.failed += failed + classes * sum(calls != self.reference for calls in self.rounds)

    def _check_first(self):
        """Return (classes in one round, failed classes) for the first round."""
        pp, qq = self.form
        modulus = TABLE_Q ** TABLE_R - 1
        gp_count = sum(1 for a in range(modulus) if general_position(TABLE_R, TABLE_Q, a))
        classes = failed = 0
        for n, (code, out) in zip(self.degrees, self.first):
            results = json.loads(out)["results"] if code == 0 else {"rows": []}
            rows = results["rows"]
            classes += len(rows)
            histogram = Counter(str(row["dimension"]) for row in rows)
            if (code != 0 or sum(row["class_size"] for row in rows) != gp_count
                    or results["histogram"] != histogram):
                failed += len(rows) or 1
                continue
            for row in self.sample_rng.sample(rows, min(TABLE_SAMPLE, len(rows))):
                if wd.wh_dim_oracle(TABLE_R, TABLE_Q, n, pp, qq,
                                    row["representative"]) != row["dimension"]:
                    failed += 1
        self.first = None
        self.classes = classes
        return classes, failed

    def counters(self):
        calls = [call for round_calls in self.rounds if round_calls for call in round_calls]
        scanned = len(self.argv) * (TABLE_Q ** TABLE_R - 1)
        return {"cli.stdout_bytes": sum(size for _, _, size in calls) / max(len(calls), 1),
                "whittaker.table.useful_ratio": self.classes / scanned}


# ---------------------------------------------------------------------------
# structure: a stream of covers through every invariant

#: (family, rank) in every block of the stream, in a seeded order.
FAMILIES = ([("gl", r) for r in range(1, 8)] + [("sl", r) for r in range(2, 7)]
            + [("sp", r) for r in range(2, 5)] + [("torus", d) for d in (2, 3, 4, 6)])
#: Residue-field tiers dealt to the families of each block: q in
#: [10^4, 10^6], or q a prime power below 200.
TIERS = ["medium"] * 5 + ["small"] * (len(FAMILIES) - 5)
#: Extra covers per block with q a prime near 10^12, on seeded families.
LARGE_PER_BLOCK = 2
STRUCTURE_BLOCKS = 200
COXETER_SEARCHES = 2


def is_prime_power(n):
    p = next(k for k in range(2, n + 1) if n % k == 0)
    while n % p == 0:
        n //= p
    return n == 1


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_Q = [q for q in range(3, 200) if is_prime_power(q)]


def _random_prime(rng, lo, hi):
    while True:
        q = rng.randrange(lo, hi) | 1
        if is_prime(q):
            return q


def _draw_cover(rng, family, rank, tier):
    if tier == "small":
        q = rng.choice(SMALL_Q)
        n = rng.choice(divisors(q - 1))
    else:
        q = (_random_prime(rng, 10 ** 4, 10 ** 6) if tier == "medium"
             else _random_prime(rng, 10 ** 12 - 10 ** 9, 10 ** 12))
        n = rng.choice([d for d in range(1, 65) if (q - 1) % d == 0])
    perm = None
    if family == "torus":
        perm = list(range(rank))
        rng.shuffle(perm)
    form = (rng.randint(-3, 3), rng.randint(-3, 3))
    d = rank - 1 if family == "sl" else rank
    points = [_draw_point(rng, d, perm) for _ in range(2)]
    exponents = []
    if family == "gl":
        modulus = q ** rank - 1
        while len(exponents) < COXETER_SEARCHES:
            a = rng.randrange(1, modulus)
            if general_position(rank, q, a):
                exponents.append(a)
    return (family, rank, q, n, form, perm, points, exponents)


def _draw_point(rng, d, perm):
    """A rational point; on a torus every cycle of ``perm`` takes the value
    of its smallest index, so that Frobenius fixes the point."""
    m = rng.choice((1, 2, 3, 4, 6))
    coords = [Fraction(rng.randint(-2 * m, 2 * m), m) for _ in range(d)]
    if perm is not None:
        coords = [coords[_cycle_min(perm, i)] for i in range(d)]
    return tuple(coords)


def _cycle_min(perm, i):
    low, j = i, perm[i]
    while j != i:
        low, j = min(low, j), perm[j]
    return low


class Structure(Workload):
    """A seeded stream of covers of GL_r, SL_r, Sp_2r and tori with a
    permutation Frobenius.  Item: one cover, built, validated and run
    through every invariant; a digest of the invariants is kept per cover.

    The stream comes in blocks of the same mix, and a window is one block:
    every (family, rank) once, five of them with a prime q in [10^4, 10^6]
    and the rest with a prime power q < 200, plus two covers with q near
    10^12.  The large-q covers go through the families in a seeded cycle,
    so that every run of a few blocks has nearly the same large-q mix.  The
    seed deals the tiers and orders each block."""

    tail_percentile = 95.0

    def __init__(self, seed):
        rng = random.Random(seed)
        cycle = rng.sample(FAMILIES, len(FAMILIES))
        self.blocks = []
        for b in range(STRUCTURE_BLOCKS):
            tiers = TIERS[:]
            rng.shuffle(tiers)
            block = [(*family, tier) for family, tier in zip(FAMILIES, tiers)]
            block += [(*cycle[(b * LARGE_PER_BLOCK + i) % len(cycle)], "large")
                      for i in range(LARGE_PER_BLOCK)]
            rng.shuffle(block)
            self.blocks.append([_draw_cover(rng, *spec) for spec in block])
        self.digests = []

    def run(self, clock):
        for block in self.blocks:
            for spec in block:
                if not clock.more():
                    return
                with clock.item() as item:
                    ok, digest = self._cover(*spec)
                    item.failed = int(not ok)
                self.digests.append(digest if item.failed == 0 else "failed")
            clock.cut()

    @staticmethod
    def _cover(family, rank, q, n, form, perm, points, exponents):
        pp, qq = form
        if family == "gl":
            cover = wd.glr_cover(rank, pp, qq, n, q)
            datum = cover.datum
        else:
            if family == "sl":
                datum = wd.build_slr(rank)
                d = datum.rank
                gram = [[2 * pp if i == j else (-pp if abs(i - j) == 1 else 0)
                         for j in range(d)] for i in range(d)]
            elif family == "sp":
                datum = wd.build_sp2r(rank)
                gram = [[2 * pp * (i == j) for j in range(rank)] for i in range(rank)]
            else:
                fr = [[int(perm[i] == j) for j in range(rank)] for i in range(rank)]
                datum = wd.build_torus(rank, fr)
                gram = [[2 * pp if i == j else qq for j in range(rank)] for i in range(rank)]
            cover = wd.CoverSpec(datum, wd.WeylInvariantForm(gram), n, q)
        d = datum.rank
        order = wd.weyl_group(datum).order
        central = wd.central_index(cover)
        lower, upper = wd.squeeze_bounds(cover)
        smith = wd.smith_invariants(wd.Sublattice.full(d), wd.y_qn(cover))
        ok = upper % lower == 0
        residual = []
        for x in [(0,) * d] + points:
            ext = wd.residual_extension(cover, x)
            residual.append((ext.phi_x, ext.iota, wd.residual_splits(cover, x),
                             wd.residual_derived_simply_connected(cover, x),
                             wd.is_vertex(datum, x)))
        searches = []
        for a in exponents:
            closed = wd.wh_dim_glr_closed(rank, q, n, pp, qq, a)
            lattice, dim = wd.y_x_rho(cover, wd.glr_coxeter_parameter(rank, q, a, n))
            ok = ok and closed == dim and dim % lower == 0 and upper % dim == 0
            searches.append((a, dim, lattice.basis))
        invariants = (family, rank, q, n, form, order, central, lower, upper,
                      smith.invariant_factors, smith.free_rank, residual, searches)
        return ok, short_digest(invariants)


WORKLOADS = {"sweep": Sweep, "table": Table, "structure": Structure}
