"""Every size guard quoted in the README and in the module docstrings of
``whittaker`` and ``cover`` is the value of its constant, formatted as it is
quoted there."""

from pathlib import Path

from whitdim import cover, whittaker
from whitdim.cover import _MILLER_RABIN_BOUND
from whitdim.lattice import MAX_COSETS
from whitdim.root_datum import MAX_GLR_RANK, MAX_WEYL_ORDER
from whitdim.whittaker import MAX_ORACLE_SCAN, MAX_TABLE_ORDER

README = Path(__file__).resolve().parent.parent / "README.md"


def _power_of_ten(value):
    """"10^e" when value is 10^e, else the value with thousands separators."""
    exponent = len(str(value)) - 1
    return f"10^{exponent}" if value == 10 ** exponent else f"{value:,}"


def _flat(text):
    return " ".join(text.split())


def test_readme_quotes_every_guard():
    text = _flat(README.read_text(encoding="utf-8"))
    for phrase in (f"a Weyl group of order above {MAX_WEYL_ORDER:,},",
                   f"GL_r with r above {MAX_GLR_RANK},",
                   f"with q^r - 1 above {_power_of_ten(MAX_TABLE_ORDER)},",
                   f"an orbit search over more than {MAX_COSETS:,} cosets",
                   f"an oracle scan of more than {MAX_ORACLE_SCAN:,} steps",
                   f"only below {_MILLER_RABIN_BOUND:,}."):
        assert phrase in text


def test_docstrings_quote_every_guard():
    text = _flat(whittaker.__doc__)
    for phrase in (f"|W| above {MAX_WEYL_ORDER:,} ",
                   f"GL_r with r above {MAX_GLR_RANK},",
                   f"more than {MAX_COSETS:,} cosets for the orbit search",
                   f"an oracle scan of more than {MAX_ORACLE_SCAN:,} steps",
                   f"a table with q^r - 1 above {_power_of_ten(MAX_TABLE_ORDER)}."):
        assert phrase in text
    assert f"More than {MAX_COSETS:,} cosets are refused" in _flat(cover.__doc__)
    assert (f"proves b prime when b < {_MILLER_RABIN_BOUND:,}"
            in _flat(cover._prime_power_base.__doc__))


def test_power_of_ten_format():
    assert _power_of_ten(10 ** 6) == "10^6"
    assert _power_of_ten(2 * 10 ** 6) == "2,000,000"
