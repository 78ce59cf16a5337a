"""Byte-identity of the command line: the exit code and the sha256 of stdout
and of stderr for a fixed set of commands, each in text and JSON format.

The commands cover every subcommand with its error and guard cases.  They
run in process through ``cli.main``; the cover files are written under the
test's working directory with relative names, so the ``cover_file`` echoed
in the output does not depend on where the test runs.  A refactor that must
keep the output as it is passes this test unchanged.
"""

import hashlib
import json

import pytest

from whitdim.cli import main

GL3_ROOTS = [[1, -1, 0], [1, 0, -1], [-1, 1, 0], [0, 1, -1], [-1, 0, 1], [0, -1, 1]]
BLOCK_ROOTS = [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]
KP_GL2 = {"rank": 2, "roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]],
          "simple": [0], "bq": [[0, 1], [1, 0]], "n": 4, "q": 5}
#: the roots e_i - e_j of GL_17, in the order of build_glr; the simple ones
#: are those with j = i + 1
GL17_PAIRS = [(i, j) for i in range(17) for j in range(17) if i != j]
GL17_ROOTS = [[(k == i) - (k == j) for k in range(17)] for i, j in GL17_PAIRS]

#: file name -> contents (a JSON document, or raw text)
COVER_FILES = {
    "gl1.json": {"rank": 1, "roots": [], "coroots": [], "simple": [],
                 "bq": [[2]], "n": 4, "q": 5},
    "gl2.json": KP_GL2,
    "gl3.json": {"rank": 3, "roots": GL3_ROOTS, "coroots": GL3_ROOTS, "simple": [0, 3],
                 "bq": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "n": 2, "q": 3},
    "sp4.json": {"rank": 2,
                 "roots": [[1, -1], [0, 2], [-1, 1], [1, 1], [2, 0], [0, -2], [-1, -1],
                           [-2, 0]],
                 "coroots": [[1, -1], [0, 1], [-1, 1], [1, 1], [1, 0], [0, -1], [-1, -1],
                             [-1, 0]],
                 "simple": [0, 1], "bq": [[2, 0], [0, 2]], "n": 2, "q": 3},
    "sl3.json": {"rank": 2,
                 "roots": [[2, -1], [-1, 2], [-2, 1], [1, 1], [1, -2], [-1, -1]],
                 "coroots": [[1, 0], [0, 1], [-1, 0], [1, 1], [0, -1], [-1, -1]],
                 "simple": [0, 1], "bq": [[2, -1], [-1, 2]], "n": 4, "q": 5},
    "non_invariant.json": dict(KP_GL2, bq=[[2, 0], [0, 4]], n=1),
    "torus_swap.json": {"rank": 2, "roots": [], "coroots": [], "simple": [],
                        "frobenius": [[0, 1], [1, 0]], "bq": [[2, 0], [0, 2]],
                        "n": 2, "q": 5},
    # two GL_2 blocks swapped by Frobenius, each with the Kazhdan-Patterson form
    "block_swap.json": {"rank": 4, "roots": BLOCK_ROOTS, "coroots": BLOCK_ROOTS,
                        "simple": [0, 2],
                        "frobenius": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0],
                                      [0, 1, 0, 0]],
                        "bq": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        "n": 2, "q": 5},
    "broken.json": "{not json",
    # nested deeper than the JSON parser recurses
    "nested.json": "[" * 200_000,
    # above the rank guard of build_glr: a torus, and the Kazhdan-Patterson
    # cover of GL_17
    "torus17.json": {"rank": 17, "roots": [], "coroots": [], "simple": [],
                     "bq": [[2 * (i == j) for j in range(17)] for i in range(17)],
                     "n": 4, "q": 5},
    "gl17.json": {"rank": 17, "roots": GL17_ROOTS, "coroots": GL17_ROOTS,
                  "simple": [k for k, (i, j) in enumerate(GL17_PAIRS) if j == i + 1],
                  "bq": [[int(i != j) for j in range(17)] for i in range(17)],
                  "n": 2, "q": 5},
    # not root data, refused by validation: the roots +-(1, 1, 0) are not
    # Weyl-conjugate to the simple root (and B(coroot, y) differs from
    # Q(coroot) <root, y> for them), and the GL_3 roots with one simple root,
    # whose reflection alone generates a group of order 2 while the roots
    # span rank 2
    "not_root_datum.json": {"rank": 3, "roots": [[1, -1, 0], [-1, 1, 0], [1, 1, 0], [-1, -1, 0]],
                            "coroots": [[1, -1, 0], [-1, 1, 0], [1, 1, 1], [-1, -1, -1]],
                            "simple": [0], "bq": [[2, 0, 1], [0, 2, 1], [1, 1, 0]],
                            "n": 2, "q": 5},
    "gl3_one_simple.json": {"rank": 3, "roots": GL3_ROOTS, "coroots": GL3_ROOTS, "simple": [0],
                            "bq": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "n": 2, "q": 3},
    # malformed documents: not an object, a string rank, a boolean among the
    # roots, and simple indices that are not a list
    "not_an_object.json": [KP_GL2],
    "string_rank.json": dict(KP_GL2, rank="2"),
    "boolean_root.json": dict(KP_GL2, roots=[[True, -1], [-1, 1]]),
    "simple_not_a_list.json": dict(KP_GL2, simple=0),
    # simple roots that are not a base: one root named twice, and a root with
    # its negative
    "simple_repeated.json": dict(KP_GL2, simple=[0, 0]),
    "simple_opposite.json": dict(KP_GL2, simple=[0, 1]),
}

EMPTY = hashlib.sha256(b"").hexdigest()
#: stderr of a datum whose simple roots are not a base
NOT_A_BASE = "64a7b1ecad9ca0c83bad9f6ed7499bfbb09c7749cfc919224b829048af1d7cf9"
#: stderr of ``not_root_datum.json``, whose root (1, 1, 0) is not
#: Weyl-conjugate to a simple root
NOT_CONJUGATE = "bd3137f28a9b861dfa80cf0c5d16f93b7297587534ecf54b787654b20e79c9a9"
#: stderr of ``nested.json``, nested too deeply to parse
NESTED = "0c580905872b69303f0d1a779845c719b3a5f67a3eb88a7adcc85b8c0def24e0"
#: stderr of ``whittaker`` and ``table`` at q = 1, no prime power
Q_BELOW_2 = "29d7ec5786ebdb367e9b9fdd622e40f94de9f4750f85db1a1107d3740c74ea2b"
#: stderr of ``whittaker`` and ``table`` at r = 0
R_BELOW_1 = "742c7a9938e845cd1c8581ef603b22d0d828421221039975190ed076f5be61e5"
#: stderr of a point written in Arabic-Indic digits
NOT_ASCII_POINT = "7b3a69095ccc2389e75da7f10869d8b67994f17840f216ee552a1da2e157d56c"

#: (command, format) -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    ("info gl1.json", "text"):
        (0, "d360954cf3b8d90fbf09ac1ccffb2a431f1a7fcb442c14e95bb16448fc827ba3",
         EMPTY),
    ("info gl1.json", "json"):
        (0, "5e53df8b7cfe14da896ca3336e990b5e3e05f1ee77a6a0b91e45e7b66356e547",
         EMPTY),
    ("info gl2.json", "text"):
        (0, "67bfb5c1a3082cc576ddd0b665aeae9f2eaa6403037363a76afc5524555d7d61",
         EMPTY),
    ("info gl2.json", "json"):
        (0, "200a711027f0951f3164f5954afe52b776d6e8efffdb964d019e92f7834dc5d8",
         EMPTY),
    ("info gl3.json", "text"):
        (0, "782c80671a2cba4b40cd23d5ada3c4d30d2d845397bac90b0be32624b9757f87",
         EMPTY),
    ("info gl3.json", "json"):
        (0, "e3bfd5a409343f9d8bb5cd99d172abb2137bc2b6d5baa76649bcdb2cc8cb1879",
         EMPTY),
    ("info sp4.json", "text"):
        (0, "ddf9f2f46999e2110aedaba2f293508a7be6a498d6119a3536534ce5f0eae0c1",
         EMPTY),
    ("info sp4.json", "json"):
        (0, "c690eb81c2d91f874f3149f96a8635b8db6549e52674d2f7a456fd5dc1fa8cbd",
         EMPTY),
    ("info sl3.json", "text"):
        (0, "77f7c29262f2a023e433a3fe9c2c3cbad8e80ad96f57489428783b8ea8539a3d",
         EMPTY),
    ("info sl3.json", "json"):
        (0, "2d3652d41c19b4b08880bf0ac19be17dbb3ce966631a2d175215ab8c08f70000",
         EMPTY),
    ("info non_invariant.json", "text"):
        (3, EMPTY,
         "4606806b26bbdbf9eb20b7cd5a6d2ea2401c8725387054a8a61d8654086654a5"),
    ("info non_invariant.json", "json"):
        (3, EMPTY,
         "4606806b26bbdbf9eb20b7cd5a6d2ea2401c8725387054a8a61d8654086654a5"),
    ("info torus17.json", "text"):
        (0, "772476b4672a14e715da1b53175589b5be298f0355457fc204cb544617dba9ac",
         EMPTY),
    ("info torus17.json", "json"):
        (0, "331003249b59aa322234bcf41d0342bfe066fff4c619e4c2071dcfac4842800b",
         EMPTY),
    ("info gl17.json", "text"):
        (0, "e698cb1f4cc8e22b16388153f65136ff85fcdf0ec0f16c381c644deee0d57a62",
         EMPTY),
    ("info gl17.json", "json"):
        (0, "bee1199d52d135bb1bb24e70b3e6722e82fdc9f0e2d5ead3b7848246089cc2e3",
         EMPTY),
    # error: the root (1, 1, 0) is not Weyl-conjugate to a simple root
    ("info not_root_datum.json", "text"): (3, EMPTY, NOT_CONJUGATE),
    ("info not_root_datum.json", "json"): (3, EMPTY, NOT_CONJUGATE),
    ("residual not_root_datum.json --point 1/2,1/2,1/2", "text"): (3, EMPTY, NOT_CONJUGATE),
    ("residual not_root_datum.json --point 1/2,1/2,1/2", "json"): (3, EMPTY, NOT_CONJUGATE),
    # error: the root (1, 0, -1) is not Weyl-conjugate to a simple root
    ("info gl3_one_simple.json", "text"):
        (3, EMPTY,
         "039cd840a7a9f066a9222bf0d62540af99f726003a52b78a09c33677a16357e4"),
    ("info gl3_one_simple.json", "json"):
        (3, EMPTY,
         "039cd840a7a9f066a9222bf0d62540af99f726003a52b78a09c33677a16357e4"),
    ("info broken.json", "text"):
        (2, EMPTY,
         "0ff55156d89f76264f3f7cf2b3d93e17831268327d1592eebfcef8011eb5a818"),
    ("info broken.json", "json"):
        (2, EMPTY,
         "0ff55156d89f76264f3f7cf2b3d93e17831268327d1592eebfcef8011eb5a818"),
    # error: cover document is nested too deeply
    ("info nested.json", "text"): (2, EMPTY, NESTED),
    ("info nested.json", "json"): (2, EMPTY, NESTED),
    ("residual nested.json --point 0", "text"): (2, EMPTY, NESTED),
    ("residual nested.json --point 0", "json"): (2, EMPTY, NESTED),
    # error: cover document must be a JSON object
    ("info not_an_object.json", "text"):
        (2, EMPTY,
         "85e3464b3e3903e7fe57bad0260ae50cab65222b2872f2fe325602a98b704d5e"),
    ("info not_an_object.json", "json"):
        (2, EMPTY,
         "85e3464b3e3903e7fe57bad0260ae50cab65222b2872f2fe325602a98b704d5e"),
    # error: field 'rank' must be an integer
    ("info string_rank.json", "text"):
        (2, EMPTY,
         "6c71d9f646a0e65a5297add25f827ce42f23c211a37e43c637d782f87fed9e82"),
    ("info string_rank.json", "json"):
        (2, EMPTY,
         "6c71d9f646a0e65a5297add25f827ce42f23c211a37e43c637d782f87fed9e82"),
    # error: field 'roots' must be a non-empty matrix of integers
    ("info boolean_root.json", "text"):
        (2, EMPTY,
         "0bc9df7c5c039f88213daf8fda181c493f803f7c37ac8f5ef174996c5aa070f3"),
    ("info boolean_root.json", "json"):
        (2, EMPTY,
         "0bc9df7c5c039f88213daf8fda181c493f803f7c37ac8f5ef174996c5aa070f3"),
    # error: field 'simple' must be a list of root indices
    ("info simple_not_a_list.json", "text"):
        (2, EMPTY,
         "d21ffcc9af3d97fb346c485821b3bcf59a562af4b0edcef49e78778f4bedc790"),
    ("info simple_not_a_list.json", "json"):
        (2, EMPTY,
         "d21ffcc9af3d97fb346c485821b3bcf59a562af4b0edcef49e78778f4bedc790"),
    # error: the simple roots are not a base: they are linearly dependent
    ("info simple_repeated.json", "text"): (3, EMPTY, NOT_A_BASE),
    ("info simple_repeated.json", "json"): (3, EMPTY, NOT_A_BASE),
    ("info simple_opposite.json", "text"): (3, EMPTY, NOT_A_BASE),
    ("info simple_opposite.json", "json"): (3, EMPTY, NOT_A_BASE),
    ("residual gl2.json --point 0,0", "text"):
        (0, "05b74f533376d7d824a031adf4b3d4378efd83c0688db52d7bfcd2b36025639f",
         EMPTY),
    ("residual gl2.json --point 0,0", "json"):
        (0, "8e1302fdea22e5e87b58f528c26e7eb482a25373883ed8c9331f0067b14fc9b0",
         EMPTY),
    ("residual gl2.json --point 1/2,-1/2", "text"):
        (0, "fe866558a9a4433f090de51dd4638ffe1c42f4a00e2bd2f4b08ef0d35455313b",
         EMPTY),
    ("residual gl2.json --point 1/2,-1/2", "json"):
        (0, "bc104ffe13c4c5983ff712c47480cd71bd2710e339fc07167bc1850152630c90",
         EMPTY),
    ("residual gl2.json --point 1/3,0", "text"):
        (0, "74e469f134c7a2b11a6b102b377a08726a89fb92c01c08da533ac343d0545e34",
         EMPTY),
    ("residual gl2.json --point 1/3,0", "json"):
        (0, "c380897ac87d8716d533a3597a1c9c887851c494bc392e190d813c1f36849063",
         EMPTY),
    ("residual sp4.json --point 1/2,0", "text"):
        (0, "e314f37e41c2cff9d957cdc2b75047147d416a132fe6f6399bb204b461e5e755",
         EMPTY),
    ("residual sp4.json --point 1/2,0", "json"):
        (0, "453ca5265f7ff6776d5697a657d5baf71a67d922298234f1c7ebda2021051e12",
         EMPTY),
    ("residual gl2.json --point 1/2,zebra", "text"):
        (2, EMPTY,
         "a0419fa546ab67e15c4f125f6dec926b79e1c75533f7887b1b0c0ac0188e5db5"),
    ("residual gl2.json --point 1/2,zebra", "json"):
        (2, EMPTY,
         "a0419fa546ab67e15c4f125f6dec926b79e1c75533f7887b1b0c0ac0188e5db5"),
    # decimal digits of another script are malformed, not read as 1/2
    ("residual gl2.json --point \u0661/\u0662,0", "text"): (2, EMPTY, NOT_ASCII_POINT),
    ("residual gl2.json --point \u0661/\u0662,0", "json"): (2, EMPTY, NOT_ASCII_POINT),
    # a Frobenius that moves coordinates: a fixed point, a point that is not
    # fixed, a point of the wrong length, and mixed denominators on the blocks
    ("residual torus_swap.json --point 1/2,1/2", "text"):
        (0, "2a156424c5492d8b999e453a58db3327ac9bda5c675c5243e8631b040be4c709",
         EMPTY),
    ("residual torus_swap.json --point 1/2,1/2", "json"):
        (0, "0b973e7985e34ce80bf9fc3002a8cf12c74c9141f4b5f122d860eeab9ff28769",
         EMPTY),
    ("residual torus_swap.json --point 1/2,0", "text"):
        (3, EMPTY,
         "7c3467bf11bf6cadf3257c1ed649f5fd06319a4415af321d20e0679fa424f378"),
    ("residual torus_swap.json --point 1/2,0", "json"):
        (3, EMPTY,
         "7c3467bf11bf6cadf3257c1ed649f5fd06319a4415af321d20e0679fa424f378"),
    ("residual torus_swap.json --point 1/2", "text"):
        (2, EMPTY,
         "47a3dd9bc0a733576ec20f3afc31d7b89318f2f4a05cc3accd6d527ec63e37f9"),
    ("residual torus_swap.json --point 1/2", "json"):
        (2, EMPTY,
         "47a3dd9bc0a733576ec20f3afc31d7b89318f2f4a05cc3accd6d527ec63e37f9"),
    ("residual block_swap.json --point 1/6,-5/6,1/6,-5/6", "text"):
        (0, "e144a80cbb827366ed20dfd16c62b11c82b762b53103f39155a72f29d3e4ec14",
         EMPTY),
    ("residual block_swap.json --point 1/6,-5/6,1/6,-5/6", "json"):
        (0, "72594be48a0dc6f1a7d4040a96403a635fa0e5291561150b981946e7a245721a",
         EMPTY),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 3", "text"):
        (0, "ca05a58eda94e6f940de9b32d6e1e357e53044f9a3771eb70d6efd206511b455",
         EMPTY),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 3", "json"):
        (0, "937d37e2268f94f86711145290cbcc163398ea9df0f0f7050c47ba9c5abdc1c3",
         EMPTY),
    ("whittaker --r 3 --q 5 --n 4 --pp 1 --qq 1 --a 2 --oracle", "text"):
        (0, "5dd7ce25ea550a211957b82805a4e2ef6246bc4c7121ba3e311276c19b6235b8",
         EMPTY),
    ("whittaker --r 3 --q 5 --n 4 --pp 1 --qq 1 --a 2 --oracle", "json"):
        (0, "ffa92fec4a548d7cf0f1a2d3081aedc6a5a7f1cd71f258023dd0cb9501227569",
         EMPTY),
    ("whittaker --r 7 --q 5 --n 4 --pp 0 --qq 1 --a 1 --oracle", "text"):
        (0, "8b5460fc8b7969d4dcc31c5f5dfc0f39782b53b53aadb35418c02779a1d1f97a",
         EMPTY),
    ("whittaker --r 7 --q 5 --n 4 --pp 0 --qq 1 --a 1 --oracle", "json"):
        (0, "8598a929695a55d2dfeb618e0fda5537bd0ec67cf7c0a03de3461b2092e23ae9",
         EMPTY),
    # the edge ranks of the Coxeter twist: a 1 x 1 cycle, and the largest
    # the rank guard admits
    ("whittaker --r 1 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "text"):
        (0, "5dd7ce25ea550a211957b82805a4e2ef6246bc4c7121ba3e311276c19b6235b8",
         EMPTY),
    ("whittaker --r 1 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "json"):
        (0, "28904af5c16211b60edb8f2fccd0633b0355284fe85824d432d34cc303e650c4",
         EMPTY),
    ("whittaker --r 16 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "text"):
        (0, "8b5460fc8b7969d4dcc31c5f5dfc0f39782b53b53aadb35418c02779a1d1f97a",
         EMPTY),
    ("whittaker --r 16 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "json"):
        (0, "910d91f13c8d6e8c0b9817e473d883565a697545fd651e62cc5f9be92be26000",
         EMPTY),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 0", "text"):
        (4, EMPTY,
         "d6ba040e9b40c4b6c85e4dfe651bef8d9dc3d6fd88407f669a0967b94fef4745"),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 0", "json"):
        (4, EMPTY,
         "d6ba040e9b40c4b6c85e4dfe651bef8d9dc3d6fd88407f669a0967b94fef4745"),
    ("whittaker --r 2 --q 5 --n 3 --pp 0 --qq 1 --a 1", "text"):
        (3, EMPTY,
         "82507444b5e317153718b0abe7e1fdceb8d3be10a888f1e804771ba33096a8fa"),
    ("whittaker --r 2 --q 5 --n 3 --pp 0 --qq 1 --a 1", "json"):
        (3, EMPTY,
         "82507444b5e317153718b0abe7e1fdceb8d3be10a888f1e804771ba33096a8fa"),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 24", "text"):
        (2, EMPTY,
         "2ca36a3a3118bdfebc154b4f5d498039e9774a4a254898a7c7bf33299b0515c1"),
    ("whittaker --r 2 --q 5 --n 4 --pp 0 --qq 1 --a 24", "json"):
        (2, EMPTY,
         "2ca36a3a3118bdfebc154b4f5d498039e9774a4a254898a7c7bf33299b0515c1"),
    ("whittaker --r 17 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "text"):
        (6, EMPTY,
         "eb362217c3a4d27622c7e451fcdaa0fe72036e39d9bf3acb829dd16021764617"),
    ("whittaker --r 17 --q 3 --n 2 --pp 0 --qq 1 --a 1 --oracle", "json"):
        (6, EMPTY,
         "eb362217c3a4d27622c7e451fcdaa0fe72036e39d9bf3acb829dd16021764617"),
    # the oracle's scan guard refuses n/gcd(n, m) near 10^12 before scanning
    ("whittaker --r 2 --q 1000000000039 --n 1000000000038 --pp 0 --qq 1 --a 5 --oracle",
     "text"):
        (6, EMPTY,
         "3211e26554f19e45ecd199f18927fc059e5d453ee991c40188430d42ff44d79b"),
    ("whittaker --r 2 --q 1000000000039 --n 1000000000038 --pp 0 --qq 1 --a 5 --oracle",
     "json"):
        (6, EMPTY,
         "3211e26554f19e45ecd199f18927fc059e5d453ee991c40188430d42ff44d79b"),
    ("table --r 2 --q 5 --n 4 --pp 0 --qq 1", "text"):
        (0, "489f967060030e2055379bf9f3072616baa68ba0bd6facc0aad7ff650abb4972",
         EMPTY),
    ("table --r 2 --q 5 --n 4 --pp 0 --qq 1", "json"):
        (0, "b385217439ff27759d0830f2f5e1fd9dc396ba1dadd6f7025b2ad5706f975639",
         EMPTY),
    # the worst case of the table benchmark (124,251 classes) and a small n
    # with the same form
    ("table --r 2 --q 499 --n 498 --pp -3 --qq -1", "text"):
        (0, "d73151de61408d8a3aa011d20491d7d2c5b9f0549b7acda42b6fa4cecd28bed1",
         EMPTY),
    ("table --r 2 --q 499 --n 498 --pp -3 --qq -1", "json"):
        (0, "f6a41fe1c9deb1499e6397e3b2ce541cbeefb83e11cd68e0209477d13ea50e04",
         EMPTY),
    ("table --r 2 --q 499 --n 2 --pp -3 --qq -1", "text"):
        (0, "f07d7aea199664b354190a793c8b8946a0ce4731540121784b6053f2746c30d1",
         EMPTY),
    ("table --r 2 --q 499 --n 2 --pp -3 --qq -1", "json"):
        (0, "7bfb824c09aeb700327b26b019e6682d86f7d8aedcce73b139a52c3ab229d7b9",
         EMPTY),
    ("table --r 3 --q 101 --n 2 --pp 0 --qq 1", "text"):
        (6, EMPTY,
         "0538654b39ded7a94c5c34ea5792a77e1dd774c533b88d691b2714cac59048ba"),
    ("table --r 3 --q 101 --n 2 --pp 0 --qq 1", "json"):
        (6, EMPTY,
         "0538654b39ded7a94c5c34ea5792a77e1dd774c533b88d691b2714cac59048ba"),
    # both GL_r commands refuse a fault alike: q = 1 as no prime power, r = 0
    # as malformed
    ("whittaker --r 2 --q 1 --n 1 --pp 0 --qq 1 --a 1", "text"): (3, EMPTY, Q_BELOW_2),
    ("whittaker --r 2 --q 1 --n 1 --pp 0 --qq 1 --a 1", "json"): (3, EMPTY, Q_BELOW_2),
    ("table --r 2 --q 1 --n 1 --pp 0 --qq 1", "text"): (3, EMPTY, Q_BELOW_2),
    ("table --r 2 --q 1 --n 1 --pp 0 --qq 1", "json"): (3, EMPTY, Q_BELOW_2),
    ("whittaker --r 0 --q 5 --n 4 --pp 0 --qq 1 --a 1", "text"): (2, EMPTY, R_BELOW_1),
    ("whittaker --r 0 --q 5 --n 4 --pp 0 --qq 1 --a 1", "json"): (2, EMPTY, R_BELOW_1),
    ("table --r 0 --q 5 --n 4 --pp 0 --qq 1", "text"): (2, EMPTY, R_BELOW_1),
    ("table --r 0 --q 5 --n 4 --pp 0 --qq 1", "json"): (2, EMPTY, R_BELOW_1),
}


def _write_cover_files():
    for name, content in COVER_FILES.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,fmt", list(GOLDEN))
def test_cli_output_is_byte_identical(command, fmt, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    _write_cover_files()
    code = main(command.split() + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, _digest(captured.out), _digest(captured.err)) == GOLDEN[command, fmt]
