"""Golden CLI corpus: fixed invocations of schlicht.cli.main with their
expected stdout bytes and exit codes, run in-process.

A case is (name, argv, stdin, files).  stdin is either literal text or
PIPE(argv, ...), the stdout of earlier invocations piped in turn; files
maps a file name to such a pipe and is written to a temporary directory
that argv reaches as "{tmp}".  A file that an invocation writes (the
check --boundary CSV) is compared byte for byte too.  stderr is not
pinned.  COLUMNS is pinned to 80, so --help wraps the same way in any
terminal.

The expected results live in tests/golden/expected.json.  Regenerate
the cases whose output is meant to change with

    PYTHONPATH=src python tests/test_golden.py --write NAME...

which rewrites only the named entries and refuses an unknown name, and
say which bytes changed and why.  With no names it rewrites every
entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence
from unittest import mock

import pytest

from schlicht.cli import main

EXPECTED = Path(__file__).parent / "golden" / "expected.json"


class PIPE(tuple):
    """stdout of the given argv lists, each fed to the next."""

    def __new__(cls, *stages):
        return super().__new__(cls, stages)


KOEBE8 = PIPE(["build", "koebe", "--order", "8"])
KOEBE16 = PIPE(["build", "koebe", "--order", "16"])
THMB16 = PIPE(["build", "thmB", "--order", "16"])
SMALL_KOEBE = PIPE(["build", "koebe", "--order", "16"], ["transform", "dilate", "--r", "0.4"])
CARATHEODORY = PIPE(["sample", "--seed", "3", "--atoms", "2", "--order", "16"])
G_FILE = {"g.json": PIPE(["build", "identity", "--order", "16"])}
WITH_FILE = {"g.json": THMB16}
BOOL_ORDER = json.dumps({"order": True, "coeffs": [[0, 0], [1, 0]]})
BOOL_COEFFS = '{"order": 2, "coeffs": [[false, 0], [true, false], [0, true]]}'
MISSING = "{tmp}/missing.json"
#: f' and f overflow to inf on every circle
OVERFLOW = json.dumps({"order": 3, "coeffs": [[0, 0], [1, 0], [1e308, 0], [1e308, 0]]})
#: a_2 = a_3 = a_4 = 1e200: a_2^2 and a_2 a_4 overflow
HUGE = json.dumps({"order": 4, "coeffs": [[0, 0], [1, 0]] + [[1e200, 0]] * 3})
#: JSON Infinity, which Python's json module reads as a float
INFINITY = '{"order": 2, "coeffs": [[0, 0], [1, 0], [Infinity, 0]]}'
#: Koebe moved by an automorphism: non-real coefficients
AUTOM64 = PIPE(["build", "koebe", "--order", "64"], ["transform", "autom", "--sigma", "0.3+0.2j"])
LIBERA_FILE = {"g.json": PIPE(["build", "koebe", "--order", "64"], ["transform", "libera"])}
#: c_0 = 0.5: z f'/f and f/z have a pole at the centre
OFF_CENTRE = json.dumps({"order": 3, "coeffs": [[0.5, 0], [1, 0], [1, 0], [0, 0]]})

CASES = [
    # build: every stock tag, the default order, an unknown tag
    ("build-koebe", ["build", "koebe", "--order", "8"], "", {}),
    ("build-koebe-default", ["build", "koebe"], "", {}),
    ("build-moebius", ["build", "moebius", "--order", "8"], "", {}),
    ("build-identity", ["build", "identity", "--order", "4"], "", {}),
    ("build-thmA", ["build", "thmA", "--order", "8"], "", {}),
    ("build-thmB", ["build", "thmB", "--order", "8"], "", {}),
    ("build-unknown-tag", ["build", "lemniscate"], "", {}),
    ("unknown-verb", ["frobnicate"], "", {}),
    # help: the verb list and the two table-driven verbs
    ("help", ["--help"], "", {}),
    ("transform-help", ["transform", "--help"], "", {}),
    ("functional-help", ["functional", "--help"], "", {}),
    # transform: every kind
    ("transform-rotate", ["transform", "rotate", "--theta", "0.7"], THMB16, {}),
    ("transform-dilate", ["transform", "dilate", "--r", "0.5"], KOEBE16, {}),
    ("transform-autom", ["transform", "autom", "--sigma", "0.3+0.2j"], THMB16, {}),
    ("transform-autom-signed", ["transform", "autom", "--sigma", "-0.3+0.2j"], THMB16, {}),
    ("transform-omit", ["transform", "omit", "--xi", "-1+0.5j"], SMALL_KOEBE, {}),
    ("transform-omit-attained", ["transform", "omit", "--xi", "0.6"],
     PIPE(["build", "identity", "--order", "8"]), {}),
    ("transform-omit-unstable", ["transform", "omit", "--xi", "0.3"], KOEBE16, {}),
    ("transform-omit-nan", ["transform", "omit", "--xi", "nan"], KOEBE8, {}),
    ("transform-sqrt", ["transform", "sqrt"], KOEBE8, {}),
    # large orders: mobius_recompose over several blocks of anti-diagonals,
    # the subnormal powers of a tiny centre, real centres on Koebe's real
    # coefficients, and the square root at an even and an odd order
    ("transform-autom-order130", ["transform", "autom", "--sigma", "0.3+0.2j"],
     PIPE(["build", "thmB", "--order", "130"]), {}),
    ("transform-autom-order256-tiny-sigma", ["transform", "autom", "--sigma", "0.001"],
     PIPE(["build", "koebe", "--order", "256"], ["transform", "rotate", "--theta", "0.7"]), {}),
    ("transform-autom-koebe-real-sigma", ["transform", "autom", "--sigma", "0.5"],
     PIPE(["build", "koebe", "--order", "256"]), {}),
    ("transform-autom-koebe-negative-sigma", ["transform", "autom", "--sigma", "-0.5"],
     PIPE(["build", "koebe", "--order", "130"]), {}),
    ("transform-sqrt-order256", ["transform", "sqrt"],
     PIPE(["build", "thmB", "--order", "256"], ["transform", "rotate", "--theta", "0.7"]), {}),
    ("transform-sqrt-order257", ["transform", "sqrt"],
     PIPE(["build", "koebe", "--order", "257"], ["transform", "dilate", "--r", "0.9"],
          ["transform", "rotate", "--theta", "1.1"]), {}),
    # a computed overflow exits 1, a non-finite input exits 2
    ("transform-sqrt-overflow", ["transform", "sqrt"], HUGE, {}),
    ("transform-sqrt-infinity-input", ["transform", "sqrt"], INFINITY, {}),
    ("transform-convolve-overflow", ["transform", "convolve", "--with", "{tmp}/huge.json"], HUGE,
     {"huge.json": HUGE}),
    ("transform-libera", ["transform", "libera"], KOEBE16, {}),
    ("transform-bernardi", ["transform", "bernardi", "--gamma", "0.5"], THMB16, {}),
    ("transform-convolve", ["transform", "convolve", "--with", "{tmp}/g.json"], KOEBE16, WITH_FILE),
    ("transform-linsum", ["transform", "linsum", "--with", "{tmp}/g.json", "--t", "0.25"],
     KOEBE16, WITH_FILE),
    ("transform-iterate", ["transform", "iterate", "--alpha", "1.5", "--n", "3"], CARATHEODORY, {}),
    ("transform-iterate-sigma", ["transform", "iterate-sigma", "--sigma", "4.5", "--n", "3"],
     CARATHEODORY, {}),
    # transform: missing flags and bad input
    ("transform-rotate-no-theta", ["transform", "rotate"], KOEBE8, {}),
    ("transform-dilate-no-r", ["transform", "dilate"], KOEBE8, {}),
    ("transform-autom-no-sigma", ["transform", "autom"], KOEBE8, {}),
    ("transform-omit-no-xi", ["transform", "omit"], KOEBE8, {}),
    ("transform-bernardi-no-gamma", ["transform", "bernardi"], KOEBE8, {}),
    ("transform-convolve-no-with", ["transform", "convolve"], KOEBE8, {}),
    ("transform-linsum-no-t", ["transform", "linsum", "--with", "{tmp}/g.json"], KOEBE8, WITH_FILE),
    ("transform-iterate-no-n", ["transform", "iterate", "--alpha", "1"], CARATHEODORY, {}),
    ("transform-iterate-sigma-no-sigma", ["transform", "iterate-sigma", "--n", "1"],
     CARATHEODORY, {}),
    ("transform-iterate-sigma-complex", ["transform", "iterate-sigma", "--sigma", "1+2j", "--n", "1"],
     CARATHEODORY, {}),
    ("transform-iterate-not-caratheodory", ["transform", "iterate", "--alpha", "1", "--n", "1"],
     KOEBE8, {}),
    ("transform-autom-bad-literal", ["transform", "autom", "--sigma", "abc"], KOEBE8, {}),
    ("transform-dilate-out-of-range", ["transform", "dilate", "--r", "1.5"], KOEBE8, {}),
    ("transform-unnormalized", ["transform", "rotate", "--theta", "0"],
     PIPE(["build", "moebius", "--order", "8"]), {}),
    ("transform-bad-json", ["transform", "rotate", "--theta", "0"], "not json {", {}),
    ("transform-bool-order", ["transform", "rotate", "--theta", "0"], BOOL_ORDER, {}),
    ("transform-unknown-kind", ["transform", "frobnicate"], KOEBE8, {}),
    ("transform-coeffs-number", ["transform", "sqrt"], '{"order": 0, "coeffs": 5}', {}),
    ("transform-coeffs-null", ["transform", "sqrt"], '{"order": 0, "coeffs": null}', {}),
    # unreadable and unwritable files named by flags
    ("transform-input-missing", ["transform", "sqrt", "--input", MISSING], "", {}),
    ("transform-input-directory", ["transform", "sqrt", "--input", "{tmp}"], "", {}),
    ("transform-with-missing", ["transform", "convolve", "--with", MISSING], KOEBE16, {}),
    ("transform-output-unwritable", ["transform", "sqrt", "--output", "{tmp}/no/dir.json"],
     KOEBE8, {}),
    # check: every class, the boundary CSV, stdin input
    ("check-bounded-turning", ["check", "--class", "bounded-turning", "--function", "thmB",
                               "--r", "0.9"], "", {}),
    ("check-starlike", ["check", "--class", "starlike", "--function", "koebe", "--r", "0.5"], "", {}),
    ("check-convex-boundary", ["check", "--class", "convex", "--function", "koebe", "--r", "0.3",
                               "--angles", "16", "--boundary", "{tmp}/curve.csv"], "", {}),
    ("check-close-to-convex", ["check", "--class", "close-to-convex", "--function", "koebe",
                               "--r", "0.5", "--g", "{tmp}/g.json"], "", G_FILE),
    ("check-ratio-positive", ["check", "--class", "ratio-positive", "--function", "thmA",
                              "--r", "0.6"], "", {}),
    ("check-quasi-convex", ["check", "--class", "quasi-convex", "--function", "koebe",
                            "--r", "0.2", "--g", "{tmp}/g.json"], "", G_FILE),
    ("check-injectivity", ["check", "--class", "injectivity", "--function", "koebe",
                           "--r", "0.9"], "", {}),
    ("check-starlike-stdin", ["check", "--class", "starlike", "--r", "0.5"], THMB16, {}),
    # local univalence of thmA fails beyond sqrt(2) - 1
    ("check-local-univalence-r041", ["check", "--class", "local-univalence", "--function", "thmA",
                                     "--r", "0.41"], "", {}),
    ("check-local-univalence-r042", ["check", "--class", "local-univalence", "--function", "thmA",
                                     "--r", "0.42"], "", {}),
    ("check-close-to-convex-no-g", ["check", "--class", "close-to-convex", "--function", "koebe",
                                    "--r", "0.5"], "", {}),
    ("check-function-and-input", ["check", "--class", "starlike", "--function", "koebe",
                                  "--input", "{tmp}/g.json", "--r", "0.5"], "", G_FILE),
    ("check-g-missing", ["check", "--class", "close-to-convex", "--function", "koebe",
                         "--r", "0.5", "--g", MISSING], "", {}),
    ("check-starlike-with-g", ["check", "--class", "starlike", "--function", "koebe",
                               "--r", "0.5", "--g", "{tmp}/g.json"], "", G_FILE),
    ("check-injectivity-overflow", ["check", "--class", "injectivity", "--r", "0.99"],
     OVERFLOW, {}),
    ("check-boundary-unwritable", ["check", "--class", "convex", "--function", "koebe",
                                   "--r", "0.3", "--angles", "16",
                                   "--boundary", "{tmp}/no/curve.csv"], "", {}),
    # radius: every predicate
    ("radius-local-univalence", ["radius", "local-univalence", "--function", "thmA"], "", {}),
    ("radius-local-univalence-identity", ["radius", "local-univalence", "--function", "identity",
                                          "--order", "8"], "", {}),
    ("radius-convex", ["radius", "convex", "--function", "koebe"], "", {}),
    ("radius-starlike-flag", ["radius", "--predicate", "starlike", "--function", "thmB",
                              "--order", "32"], "", {}),
    ("radius-bounded-turning", ["radius", "bounded-turning", "--function", "koebe",
                                "--order", "32"], "", {}),
    ("radius-ratio-positive", ["radius", "ratio-positive", "--function", "thmA",
                               "--order", "32"], "", {}),
    ("radius-close-to-convex", ["radius", "close-to-convex", "--function", "koebe",
                                "--order", "16", "--g", "{tmp}/g.json"], "", G_FILE),
    ("radius-quasi-convex", ["radius", "quasi-convex", "--function", "koebe",
                             "--order", "16", "--g", "{tmp}/g.json"], "", G_FILE),
    ("radius-injectivity", ["radius", "injectivity", "--function", "koebe", "--order", "16"],
     "", {}),
    # z + 2z^2 is univalent exactly in |z| < 1/4
    ("radius-injectivity-stdin", ["radius", "injectivity"],
     json.dumps({"order": 2, "coeffs": [[0, 0], [1, 0], [2, 0]]}), {}),
    ("radius-no-predicate", ["radius", "--function", "koebe"], "", {}),
    ("radius-two-predicates", ["radius", "convex", "--predicate", "starlike",
                               "--function", "koebe"], "", {}),
    ("radius-convex-with-g", ["radius", "convex", "--function", "koebe", "--g", "{tmp}/g.json"],
     "", G_FILE),
    ("radius-local-univalence-overflow", ["radius", "local-univalence"], OVERFLOW, {}),
    ("radius-convex-trace", ["radius", "convex", "--function", "koebe", "--order", "16",
                             "--trace"], "", {}),
    # check and radius with --order above --angles, series and closed form
    ("radius-convex-order300-angles64", ["radius", "convex", "--function", "koebe",
                                         "--order", "300", "--angles", "64"], "", {}),
    ("check-starlike-order600-angles16", ["check", "--class", "starlike", "--function", "koebe",
                                          "--order", "600", "--r", "0.9", "--angles", "16"], "", {}),
    ("check-starlike-stdin-order600-angles16", ["check", "--class", "starlike", "--r", "0.9",
                                                "--angles", "16"],
     PIPE(["build", "koebe", "--order", "600"]), {}),
    ("check-bounded-turning-stdin-angles8", ["check", "--class", "bounded-turning", "--r", "0.8",
                                             "--angles", "8"], KOEBE16, {}),
    ("radius-local-univalence-order200-angles64", ["radius", "local-univalence", "--angles", "64"],
     PIPE(["build", "thmA", "--order", "200"]), {}),
    ("radius-quasi-convex-order64-angles32", ["radius", "quasi-convex", "--function", "koebe",
                                              "--order", "64", "--angles", "32",
                                              "--g", "{tmp}/g.json"], "", G_FILE),
    ("radius-close-to-convex-order64-angles32", ["radius", "close-to-convex", "--function", "koebe",
                                                 "--order", "64", "--angles", "32",
                                                 "--g", "{tmp}/g.json"], "", G_FILE),
    # every class on non-real coefficients, with the order folded for the
    # two that read g; a series with c_0 != 0 fails at the centre
    ("radius-bounded-turning-autom-trace", ["radius", "bounded-turning", "--trace"], AUTOM64, {}),
    ("radius-starlike-autom-trace", ["radius", "starlike", "--trace"], AUTOM64, {}),
    ("radius-ratio-positive-autom-trace", ["radius", "ratio-positive", "--trace"], AUTOM64, {}),
    ("radius-close-to-convex-autom-angles32", ["radius", "close-to-convex", "--trace",
                                               "--angles", "32", "--g", "{tmp}/g.json"],
     AUTOM64, LIBERA_FILE),
    ("radius-quasi-convex-autom-angles32", ["radius", "quasi-convex", "--trace",
                                            "--angles", "32", "--g", "{tmp}/g.json"],
     AUTOM64, LIBERA_FILE),
    ("radius-starlike-off-centre", ["radius", "starlike"], OFF_CENTRE, {}),
    ("radius-ratio-positive-off-centre", ["radius", "ratio-positive"], OFF_CENTRE, {}),
    # functional: every kind
    ("functional-fekete", ["functional", "fekete", "--alpha", "0.25", "--function", "koebe",
                           "--order", "8"], "", {}),
    ("functional-fekete-no-alpha", ["functional", "fekete", "--function", "koebe"], "", {}),
    ("functional-hankel", ["functional", "hankel", "--q", "3", "--n", "1", "--function", "koebe",
                           "--order", "8"], "", {}),
    ("functional-hankel-thmB", ["functional", "hankel", "--q", "2", "--n", "2"], THMB16, {}),
    ("functional-hankel-overflow", ["functional", "hankel", "--q", "2", "--n", "1"], HUGE, {}),
    ("functional-fekete-overflow", ["functional", "fekete", "--alpha", "0.5"], HUGE, {}),
    ("functional-hankel-q0", ["functional", "hankel", "--q", "0", "--function", "koebe"], "", {}),
    ("functional-bieberbach", ["functional", "bieberbach", "--function", "thmB",
                               "--order", "16"], "", {}),
    ("functional-bieberbach-bool-coeffs", ["functional", "bieberbach"], BOOL_COEFFS, {}),
    ("functional-covering", ["functional", "covering", "--xi", "-0.25", "--function", "koebe",
                             "--order", "8"], "", {}),
    ("functional-covering-tiny-xi", ["functional", "covering", "--xi", "1e-320",
                                     "--function", "koebe"], "", {}),
    ("functional-covering-no-xi", ["functional", "covering", "--function", "koebe"], "", {}),
    # sample and report
    ("sample-series", ["sample", "--seed", "7", "--atoms", "3", "--order", "16"], "", {}),
    ("sample-measure", ["sample", "--seed", "7", "--atoms", "3", "--measure"], "", {}),
    ("sample-no-atoms", ["sample", "--atoms", "0"], "", {}),
    # seeds past 64 and 128 bits, where SeedSequence hashes more words
    ("sample-seed-2pow64", ["sample", "--seed", "18446744073709551616", "--atoms", "2",
                            "--order", "8"], "", {}),
    ("sample-measure-seed-2pow130", ["sample", "--measure", "--seed",
                                     "1361129467683753853853498429727072845829",
                                     "--atoms", "5"], "", {}),
    ("report-seed0", ["report", "--seed", "0"], "", {}),
    ("report-seed1", ["report", "--seed", "1"], "", {}),
    ("report-seed2", ["report", "--seed", "2"], "", {}),
    ("report-small", ["report", "--seed", "5", "--samples", "20", "--order", "8"], "", {}),
    # report: atom groups of unequal size, the smallest orders, blocks
    # of samples at order 129, and a long sweep
    ("report-samples13", ["report", "--seed", "4", "--samples", "13"], "", {}),
    ("report-order2", ["report", "--seed", "6", "--order", "2"], "", {}),
    ("report-order3", ["report", "--seed", "7", "--order", "3"], "", {}),
    ("report-order129", ["report", "--seed", "8", "--samples", "1100", "--order", "129"], "", {}),
    ("report-seed9-1000", ["report", "--seed", "9", "--samples", "1000"], "", {}),
    ("report-no-samples", ["report", "--samples", "0"], "", {}),
    ("report-order-too-low", ["report", "--order", "1"], "", {}),
]

#: Files an invocation writes, compared after the run.
WRITTEN = ("curve.csv",)


def invoke(argv: list, stdin: str = "", columns: int = 80) -> tuple[int, str]:
    """Exit code and stdout of schlicht.cli.main(argv), in this process."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            mock.patch.dict(os.environ, {"COLUMNS": str(columns)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _text(source) -> str:
    if not isinstance(source, PIPE):
        return source
    text = ""
    for argv in source:
        code, text = invoke(argv, text)
        assert code == 0, f"pipe stage {argv} exited {code}"
    return text


def run_case(argv: list, stdin, files: dict, tmp: Path) -> dict:
    for name, source in files.items():
        (tmp / name).write_text(_text(source), encoding="utf-8")
    code, stdout = invoke([a.replace("{tmp}", str(tmp)) for a in argv], _text(stdin))
    result = {"exit": code, "stdout": stdout}
    written = {n: (tmp / n).read_text(encoding="utf-8") for n in WRITTEN if (tmp / n).exists()}
    if written:
        result["files"] = written
    return result


def test_case_names_are_unique():
    names = [case[0] for case in CASES]
    assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_corpus_matches_expected_cases(expected):
    assert sorted(expected) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("name, argv, stdin, files", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, stdin, files, expected, tmp_path):
    assert run_case(argv, stdin, files, tmp_path) == expected[name]


class TestParserKeepsNoState:
    # main parses with one parser per process, so no call may leave
    # anything behind that the next call sees
    CASE = {case[0]: case for case in CASES}

    def run(self, name: str, tmp: Path) -> dict:
        return run_case(*self.CASE[name][1:], tmp)

    def test_trace_is_not_kept(self, expected, tmp_path):
        argv = self.CASE["radius-convex-trace"][1]
        assert self.run("radius-convex-trace", tmp_path) == expected["radius-convex-trace"]
        code, stdout = invoke([a for a in argv if a != "--trace"])
        traced = json.loads(expected["radius-convex-trace"]["stdout"])
        del traced["trace"], traced["monotone"]
        assert code == 0 and json.loads(stdout) == traced

    @pytest.mark.parametrize(
        "failing", ["unknown-verb", "build-unknown-tag", "transform-unknown-kind", "sample-no-atoms",
                    "radius-no-predicate", "report-order-too-low"]
    )
    def test_exit_two_leaves_nothing(self, failing, expected, tmp_path):
        assert self.run(failing, tmp_path)["exit"] == 2
        for name in ("sample-series", "report-small", "radius-convex-trace"):
            assert self.run(name, tmp_path) == expected[name]

    @pytest.mark.parametrize("name", ["help", "transform-help", "functional-help"])
    def test_help_rewraps_to_the_columns_of_each_call(self, name, expected):
        argv = self.CASE[name][1]
        code, wide = invoke(argv, columns=120)
        assert code == 0 and wide != expected[name]["stdout"]
        assert invoke(argv) == (0, expected[name]["stdout"])


def write_expected(names: Sequence[str] = ()) -> None:
    """Rewrite the expected results of the named cases, or of every case
    when no name is given; the other entries keep their bytes."""
    unknown = set(names) - {case[0] for case in CASES}
    if unknown:
        sys.exit(f"unknown case: {', '.join(sorted(unknown))}")
    results = json.loads(EXPECTED.read_text(encoding="utf-8")) if names else {}
    for name, argv, stdin, files in CASES:
        if name in names or not names:
            with tempfile.TemporaryDirectory() as tmp:
                results[name] = run_case(argv, stdin, files, Path(tmp))
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write [NAME...]")
    write_expected(sys.argv[2:])
