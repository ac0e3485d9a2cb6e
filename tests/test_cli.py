import collections
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from jtlab import cli, codes, hessians
from jtlab.cli import MAX_TABLE_ROWS, main
from jtlab.codes import diagonal_partition_count, enumerate_cijt, enumerate_diagonal_partitions
from jtlab.constructor import construct_ci
from jtlab.errors import BudgetExceeded, InternalInconsistency
from jtlab.partitions import MAX_PARTS, HilbertFunction, Partition
from jtlab.polynomials import MAX_DEGREE
from tests_support import cli_fuzz_argv, random_dual_form

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, env_seed=None):
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.pop("JTLAB_SEED", None)
    try:
        if env_seed is not None:
            os.environ["JTLAB_SEED"] = str(env_seed)
        code = main(list(argv), out=out, err=err)
    finally:
        os.environ.pop("JTLAB_SEED", None)
        if old is not None:
            os.environ["JTLAB_SEED"] = old
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(result, want_code):
    code, out, err = result
    assert code == want_code and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def normalized(text):
    """Header line joined with sorted data lines; row order is immaterial."""
    lines = text.splitlines()
    return "\n".join(lines[:1] + sorted(lines[1:]))


# -- a grammar-following fuzz ------------------------------------------------------


def test_fuzzed_argv_exit_with_a_known_code(monkeypatch):
    # 500 seeded argv whose tokens follow each subcommand's grammar, so most
    # get past argparse: each answers (0), fails a check (1), gets a domain
    # error's exit code, or stops at argparse (SystemExit 2); no exception
    # escapes.  The codes are counted, so the fuzz cannot pass by stopping
    # every argv at one gate
    monkeypatch.delenv("JTLAB_SEED", raising=False)
    rng = random.Random(0xF022)
    codes = collections.Counter()
    for _ in range(500):
        argv = cli_fuzz_argv(rng)
        try:
            code = main(argv, out=io.StringIO(), err=io.StringIO())
        except SystemExit as exc:  # argparse's usage error, on the real stderr
            assert exc.code == 2, argv
            code = "argparse"
        assert code in {0, 1, "argparse", *cli.EXIT_CODES.values()}, (argv, code)
        codes[code] += 1
    assert codes[0] > 200 and sum(codes[c] for c in set(cli.EXIT_CODES.values())) > 100, codes


# -- bad input: every subcommand, every class of error ---------------------------

BAD_INPUT = [
    # (argv, exit code, text the error line must contain)
    (("enumerate", "1,3,1"), 2, "not of the form"),
    (("enumerate", str(HilbertFunction.from_dk(11, 2))), 2, "cap"),
    (("classify", "zzz"), 2, "bad entry"),
    (("classify", "4,2", "1,2,3,2,1"), 3, "diagonal lengths of 4,2"),
    (("realize", "2,2,1,1"), 4, "equality criterion"),
    (("realize", "3,3,2,1"), 4, "not a CIJT"),
    (("realize",), 2, "exactly one"),
    (("realize", "6,4,2", "--all", "1,2,3,3,2,1"), 2, "exactly one"),
    (("realize", "--all", "1,3,1"), 2, "not of the form"),
    # 2^16 CIJTs, over MAX_TABLE_ROWS, refused before any is enumerated;
    # uncapped, T(18, 2) still runs after 8 s
    (("realize", "--all", str(HilbertFunction.from_dk(16, 2))), 2, "cap"),
    (("jordan", "x^2", "--ell", "x"), 5, "dim A_"),
    (("jordan", "--ell", "x"), 2, "exactly one"),
    (("jordan", "--dual", "0", "--ell", "x"), 2, "nonzero"),
    # F is named as given, in X and Y
    (("jordan", "--dual", "X^2*Y^3+X*Y", "--ell", "x"), 2, "X^2*Y^3 + X*Y is not homogeneous"),
    *(
        (("jordan", *source, "--ell", ell), 2, "linear")
        for source in (("x^2,y^2",), ("--dual", "X*Y"))
        for ell in ("0", "1", "x^2")
    ),
    (("jordan", "1,x", "--ell", "x"), 2, "unit"),
    (("jordan", "2", "--ell", "x"), 2, "unit"),
    (("jordan", "x^0,y", "--ell", "x"), 2, "unit"),
    # generator degrees over algebra.MAX_DEGREE, refused before any
    # elimination; uncapped, both still run after 40 s
    (("jordan", "--dual", "X^400", "--ell", "x"), 2, "cap"),
    (("jordan", "x^300,y^300", "--ell", "x"), 2, "cap"),
    # a coefficient with a zero denominator names its term
    (("jordan", "x^2,y^2", "--ell", "1/0*x"), 2, "zero denominator in term '1/0*x'"),
    (("jordan", "1/0*x^2,y^2", "--ell", "x"), 2, "zero denominator in term '1/0*x^2'"),
    (("jordan", "--dual", "3/0*X^4+Y^4", "--ell", "x"), 2, "zero denominator in term '3/0*X^4'"),
    (("jordan", "x^2,y^2", "--ell", "0/0*x+y"), 2, "zero denominator in term '0/0*x'"),
    (("table", "99"), 2, "unknown figure"),
    (("table", "3a:abc"), 2, "positive integer"),
    (("table", "3a:0"), 2, "positive integer"),
    # caret lists and figure ids over the MAX_PARTS cap, refused before any
    # list is built; uncapped, 1^1990 and 3a:1990 overflow the recursion
    # limit of the symmetric-placement search
    (("classify", "1^1990"), 2, "entries"),
    (("classify", "2^1990"), 2, "entries"),
    (("classify", "1^100000000"), 2, "entries"),
    (("classify", "100000000"), 2, "entries"),
    (("enumerate", "1^1990"), 2, "entries"),
    (("realize", "--all", "1^100000000"), 2, "entries"),
    (("table", "3a:1990"), 2, "entries"),
    (("table", "10.5:100000000"), 2, "entries"),
    (("table", "11:100000000"), 2, "entries"),
    (("table", "12:100000000"), 2, "entries"),
]


@pytest.mark.parametrize(
    "argv, want_code, needle", BAD_INPUT, ids=[" ".join(c[0]) for c in BAD_INPUT]
)
def test_bad_input_exit_code_and_one_error_line(argv, want_code, needle):
    result = run_cli(*argv)
    assert_one_error_line(result, want_code)
    assert needle in result[2]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", f"1^{MAX_PARTS}"),
        ("classify", f"{MAX_PARTS}"),
        ("table", f"3a:{MAX_PARTS - 2}"),
        ("table", f"12:{MAX_PARTS - 8}"),
    ],
    ids=" ".join,
)
def test_inputs_at_the_parts_cap_run(argv):
    code, out, err = run_cli(*argv)
    assert code == 0 and out and not err


@pytest.mark.parametrize(
    "argv, joined",
    [
        (("jordan", "x^2,y^3", "--ell", "-x+y"), ("jordan", "x^2,y^3", "--ell=-x+y")),
        (("jordan", "--dual", "-X^2*Y^3+Y^5", "--ell", "x"), ("jordan", "--dual=-X^2*Y^3+Y^5", "--ell", "x")),
        (("jordan", "--ell", "-x-y", "--dual", "-X^4"), ("jordan", "--ell=-x-y", "--dual=-X^4")),
    ],
    ids=["ell", "dual", "both"],
)
def test_a_form_with_a_leading_minus_needs_no_equals_sign(argv, joined):
    # argparse alone reads a separate -x+y as an option
    result = run_cli(*argv)
    assert result == run_cli(*joined)
    assert result[0] == 0 and result[1] and not result[2]


def test_non_integer_env_seed_exits_2():
    assert_one_error_line(run_cli("realize", "6,4,2", env_seed="abc"), 2)


def test_jordan_directory_as_ideal_exits_2(tmp_path):
    assert_one_error_line(run_cli("jordan", str(tmp_path), "--ell", "x"), 2)


def test_jordan_unreadable_ideal_file_exits_2(tmp_path):
    path = tmp_path / "ideal.bin"
    path.write_bytes(b"\xff\xfe\x00x^2")
    assert_one_error_line(run_cli("jordan", str(path), "--ell", "x"), 2)


def test_internal_inconsistency_is_not_an_exit_code(monkeypatch):
    # a bug must surface with its traceback, not as bad input
    def broken(P, T):
        raise InternalInconsistency("planted")

    monkeypatch.setattr(cli, "classification_row", broken)
    with pytest.raises(InternalInconsistency, match="planted"):
        run_cli("enumerate", "1,2,1")


# -- table goldens ---------------------------------------------------------------


@pytest.mark.parametrize(
    "figure, golden",
    [
        ("9", "table9.txt"),
        ("2a-1221", "table2a-1221.txt"),
        ("3a:2", "table3a-2.txt"),
        ("3a:3", "table3a-3.txt"),
        ("3a:4", "table3a-4.txt"),
    ],
)
def test_table_matches_golden(figure, golden):
    code, out, _ = run_cli("table", figure)
    assert code == 0
    want = (GOLDEN / golden).read_text()
    assert normalized(out) == normalized(want)


# -- jordan golden ----------------------------------------------------------------

# `jordan --format json` on five inputs, each in the directions x, y, x+y,
# x+2y and 2x: two monomial-heavy ideals, the realization of 6,4,2 that
# `realize 6,4,2 --seed 3` builds, and two dual generators
JORDAN_GOLDEN = json.loads((GOLDEN / "jordan.json").read_text())


def test_jordan_golden_covers_a_realization_ideal():
    realized = str(construct_ci(Partition("6,4,2"), seed=3))
    assert any(case["argv"][1] == realized for case in JORDAN_GOLDEN)
    assert len(JORDAN_GOLDEN) == 25


@pytest.mark.parametrize(
    "case", JORDAN_GOLDEN, ids=[" ".join(case["argv"][1:-2]) for case in JORDAN_GOLDEN]
)
def test_jordan_matches_golden(case):
    code, out, err = run_cli(*case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]


# sha256 of `jordan --dual F --ell D --format plain|json` for the dense dual
# generator F = random_dual_form(Random(0), 49) and D = x+2*y, 2*x-3*y and y.
# j = 49 is the largest degree MAX_DEGREE admits, far past the benchmark's
# forms (j <= 9); the digests were recorded before the build stored free
# x-shifts as they stand
JORDAN_DUAL_49_GOLDEN = json.loads((GOLDEN / "jordan-dual49.json").read_text())


def test_jordan_dual_49_golden_covers_the_largest_dense_form():
    F = random_dual_form(random.Random(0), 49)
    assert F.degree() + 1 == MAX_DEGREE
    assert {case["argv"][2] for case in JORDAN_DUAL_49_GOLDEN} == {F.text(("X", "Y"))}
    assert [(case["argv"][4], case["argv"][6]) for case in JORDAN_DUAL_49_GOLDEN] == [
        (ell, fmt) for ell in ("x+2*y", "2*x-3*y", "y") for fmt in ("plain", "json")
    ]


@pytest.mark.parametrize(
    "case",
    JORDAN_DUAL_49_GOLDEN,
    ids=[" ".join(case["argv"][4:]) for case in JORDAN_DUAL_49_GOLDEN],
)
def test_jordan_dual_49_matches_golden(case):
    code, out, err = run_cli(*case["argv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# -- enumerate golden -------------------------------------------------------------

# sha256 of the stdout of `enumerate T --format json`, plain and --cijt-only,
# for every T(d, k) with 2 <= d <= 6 and 1 <= k <= 3
ENUMERATE_GOLDEN = json.loads((GOLDEN / "enumerate.json").read_text())


def test_enumerate_golden_covers_every_small_T():
    covered = {(case["argv"][1], "--cijt-only" in case["argv"]) for case in ENUMERATE_GOLDEN}
    want = {
        (str(HilbertFunction.from_dk(d, k)), cijt_only)
        for d in range(2, 7)
        for k in range(1, 4)
        for cijt_only in (False, True)
    }
    assert covered == want and len(ENUMERATE_GOLDEN) == len(want)


@pytest.mark.parametrize(
    "case", ENUMERATE_GOLDEN, ids=[" ".join(case["argv"][1:]) for case in ENUMERATE_GOLDEN]
)
def test_enumerate_matches_golden(case):
    code, out, err = run_cli(*case["argv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# -- realize golden ---------------------------------------------------------------

# sha256 of the stdout of `realize --all T`, plain and json, for T(3, 2) and
# T(4, 2) at seeds 0 and 5 and with --alpha-zero, and of `realize 6,4,2
# --seed 5`: every text of a passing realization report
REALIZE_GOLDEN = json.loads((GOLDEN / "realize.json").read_text())


def test_realize_golden_covers_both_formats():
    assert len(REALIZE_GOLDEN) == 14
    formats = [case["argv"][case["argv"].index("--format") + 1] for case in REALIZE_GOLDEN]
    assert formats.count("plain") == formats.count("json") == 7


@pytest.mark.parametrize(
    "case", REALIZE_GOLDEN, ids=[" ".join(case["argv"][1:]) for case in REALIZE_GOLDEN]
)
def test_realize_matches_golden(case):
    code, out, err = run_cli(*case["argv"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("d, k", [(11, 1), (11, 2), (15, 2)])
def test_enumerate_over_row_cap_exits_2(d, k):
    T = HilbertFunction.from_dk(d, k)
    assert diagonal_partition_count(T) > MAX_TABLE_ROWS
    code, out, err = run_cli("enumerate", str(T), "--cijt-only")
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


def test_enumerate_just_under_row_cap():
    # T(10, 2) has 2 * 3^9 = 39366 partitions, just under the cap, which
    # counts them all; with --cijt-only only its 2^10 CIJT rows are built
    T = HilbertFunction.from_dk(10, 2)
    assert diagonal_partition_count(T) == 39366 <= MAX_TABLE_ROWS
    code, out, _ = run_cli("enumerate", str(T), "--cijt-only", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2**10


# sha256 of `enumerate T(10, 2) --format csv`: all 39366 rows of the largest
# table the row cap admits, recorded when every row's hook code was counted
# on its Ferrers diagram
T_10_2_CSV_SHA256 = "a4f1a7451b4a9a89d3c2854af930d93e48bc30ca8da0eada67e3b3e5d2ce9bb0"


def test_enumerate_largest_table_matches_golden():
    T = HilbertFunction.from_dk(10, 2)
    code, out, err = run_cli("enumerate", str(T), "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == T_10_2_CSV_SHA256


@pytest.mark.parametrize("d, k", [(6, 2), (5, 1)])
def test_classification_row_reads_hook_codes_off_the_label(monkeypatch, d, k):
    # an enumerated partition carries its label, so its row needs neither a
    # hook count on the diagram nor the diagram's columns
    T = HilbertFunction.from_dk(d, k)
    partitions = enumerate_diagonal_partitions(T)
    want = [cli.classification_row(Partition(P.parts), T) for P in partitions]

    def refuse(P):
        raise AssertionError("the Ferrers diagram was read")

    monkeypatch.setattr(codes, "hook_counts_by_degree", refuse)
    monkeypatch.setattr(codes, "column_lengths", refuse)
    assert [cli.classification_row(P, T) for P in partitions] == want


def test_classification_row_hook_texts_equal_the_diagram_count():
    # every row of T(d, k) for d <= 8, k <= 4: both hook-code columns, written
    # from the label walk, equal the texts of the HookCode counted on the
    # Ferrers diagram of a label-free copy
    for d in range(1, 9):
        for k in range(1, 5):
            T = HilbertFunction.from_dk(d, k)
            for P in enumerate_diagonal_partitions(T):
                row = cli.classification_row(P, T)
                hook = codes.hook_code_direct(Partition(P.parts))
                assert row["hook_code"] == hook.traditional_str(support_only=True), P
                assert row["subscripted_hook_code"] == hook.subscripted_str(), P


def test_classification_row_builds_no_hook_code(monkeypatch):
    T = HilbertFunction.from_dk(6, 2)
    partitions = enumerate_diagonal_partitions(T)
    want = [cli.classification_row(P, T) for P in partitions]

    def refuse(*args):
        raise AssertionError("a HookCode was built")

    monkeypatch.setattr(codes, "HookCode", refuse)
    assert [cli.classification_row(P, T) for P in partitions] == want


def test_table_11_k1_columns_coincide():
    code, out, _ = run_cli("table", "11:1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 8
    assert all(row["partition"] == row["iota"] for row in data["rows"])


def test_tables_json_round_trip():
    for figure in ("9", "2a-121", "2a-12321", "3a:2", "10.5:3", "12:2"):
        code, out, _ = run_cli("table", figure, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data
        assert data["rows"]


# -- enumerate --------------------------------------------------------------------


def test_enumerate_row_count_and_order():
    code, out, _ = run_cli("enumerate", "1,2,3,3,2,1")
    assert code == 0
    assert len(out.splitlines()) == 19  # header + 18 rows


def test_enumerate_cijt_only():
    code, out, _ = run_cli("enumerate", "1,2,2,2,1", "--cijt-only", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert all(row["cijt"] for row in rows)


def test_cijt_only_table_is_the_filtered_table_without_gluing(monkeypatch):
    # the CIJT rows come from enumerate_cijt, in the order and with the
    # cells of the full table's CIJT rows; no other partition is glued
    fulls = {
        (d, k): cli.classification_table(HilbertFunction.from_dk(d, k))
        for d in range(2, 8)
        for k in range(1, 4)
    }

    def refuse(*args):
        raise AssertionError("every partition glued")

    monkeypatch.setattr(cli, "enumerate_diagonal_partitions", refuse)
    for (d, k), full in fulls.items():
        table = cli.classification_table(HilbertFunction.from_dk(d, k), cijt_only=True)
        keep = [n for n, row in enumerate(full["structured"]["rows"]) if row["cijt"]]
        assert len(keep) == len(table["rows_text"]) == 2 ** (d - 1 if k == 1 else d)
        assert table["headers"] == full["headers"]
        assert table["rows_text"] == [full["rows_text"][n] for n in keep]
        assert table["structured"] == {
            "hilbert": full["structured"]["hilbert"],
            "rows": [full["structured"]["rows"][n] for n in keep],
        }


def test_cijt_only_table_is_capped_before_enumerating(monkeypatch):
    # the cap counts every partition of T, as for the full table
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(cli, "enumerate_cijt", refuse)
    with pytest.raises(BudgetExceeded, match="would enumerate 118098 partitions"):
        cli.classification_table(HilbertFunction.from_dk(11, 2), cijt_only=True)


def test_enumerate_csv_parses():
    import csv

    code, out, _ = run_cli("enumerate", "1,2,2,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "P"
    assert len(rows) == 7


# -- classify --------------------------------------------------------------------


def test_classify_cijt_partition():
    code, out, _ = run_cli("classify", "19^2,15^2,10^3,3^4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cijt"] is True
    assert data["nonvanishing"] == [1, 3, 6]


def test_classify_symmetric_non_cijt():
    code, out, _ = run_cli("classify", "2,2,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cijt"] is False and data["symmetric"] is True


def test_classify_trivial_partition():
    code, out, _ = run_cli("classify", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["diagonal_lengths"] == "1" and data["cijt"] is True


# `classify --format plain|json` on the partitions the test_classify_* tests
# use, on 6,4,2, and on 4,2,1, whose diagonal lengths 1,2,3,1 are not
# CI-shaped; recorded when classify built a CIJT's rank profile twice
CLASSIFY_GOLDEN = json.loads((GOLDEN / "classify.json").read_text())


def test_classify_golden_covers_both_formats_and_both_shapes():
    assert len(CLASSIFY_GOLDEN) == 12
    texts = [case["stdout"] for case in CLASSIFY_GOLDEN if case["argv"][-1] == "plain"]
    assert len(texts) == 6
    assert any("ci_shape: no" in text for text in texts)
    assert any("rank_profile" in text for text in texts)


@pytest.mark.parametrize(
    "case", CLASSIFY_GOLDEN, ids=[" ".join(case["argv"][1:]) for case in CLASSIFY_GOLDEN]
)
def test_classify_matches_golden(case):
    code, out, err = run_cli(*case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_classify_builds_the_rank_profile_once(monkeypatch, fmt):
    # the row's Hessian columns and the rank_profile field share one profile
    built = []
    real = cli.predicted_rank_profile

    def counted(P):
        built.append(P)
        return real(P)

    monkeypatch.setattr(cli, "predicted_rank_profile", counted)
    code, out, _ = run_cli("classify", "6,4,2", "--format", fmt)
    assert code == 0 and "rank_profile" in out
    assert built == [Partition("6,4,2")]


def test_classify_parse_error_and_mismatch():
    code, _, _ = run_cli("classify", "zzz")
    assert code == 2
    code, _, err = run_cli("classify", "4,2", "1,2,3,2,1")
    assert code == 3 and err
    code, _, _ = run_cli("classify", "4,2", "1,2,2,1")
    assert code == 0


# -- realize ---------------------------------------------------------------------


def test_realize_alpha_zero_reproduces_reference_ideal():
    code, out, _ = run_cli("realize", "6,2,2,2", "--alpha-zero")
    assert code == 0
    assert "x^2*y, y^4 + x^4" in out
    assert out.count("[ok  ]") == 6


def test_realize_all_passes():
    code, out, _ = run_cli("realize", "--all", "1,2,3,3,2,1", "--seed", "7")
    assert code == 0
    assert "8/8 realizations passed all checks" in out


def test_realize_env_seed_overrides_flag():
    _, with_flag, _ = run_cli("realize", "6,4,2", "--seed", "3")
    _, with_env, _ = run_cli("realize", "6,4,2", "--seed", "9", env_seed=3)
    assert with_env == with_flag
    _, other, _ = run_cli("realize", "6,4,2", "--seed", "9")
    assert other != with_flag


def test_realize_all_alpha_zero_is_each_alpha_zero_realization():
    T = "1,2,3,3,2,1"
    code, out, _ = run_cli("realize", "--all", T, "--alpha-zero")
    assert code == 0
    want = "".join(
        run_cli("realize", str(P), "--alpha-zero")[1] + "\n"
        for P in enumerate_cijt(HilbertFunction(T))
    )
    assert out == want + "8/8 realizations passed all checks\n"


def test_realize_json_lambda2_strings():
    # Lambda_2 is printed from its Fractions: an integral entry as an
    # integer, as before polynomials kept integral coefficients as ints
    code, out, _ = run_cli("realize", "--all", "1,2,3,3,2,1", "--seed", "5", "--format", "json")
    assert code == 0
    records = json.loads(out)["realizations"]
    assert [(r["partition"], r["lambda2"]) for r in records] == [
        ("3^4", []),
        ("6,2^3", ["3"]),
        ("5^2,1^2", ["-5", "2"]),
        ("6,4,1^2", ["-2"]),
        ("4^3", []),
        ("6,3^2", ["-4"]),
        ("5^2,2", ["0", "2"]),
        ("6,4,2", ["-2"]),
    ]
    assert records[1]["generators"] == ["x^2*y + 3*x^3", "y^4 + 3*x*y^3 + x^4"]


def test_realize_json_fields():
    code, out, _ = run_cli("realize", "6,2,2,2", "--alpha-zero", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"partition", "generators", "lambda2", "checks", "all_passed"}
    assert record["partition"] == "6,2^3"
    assert record["generators"] == ["x^2*y", "y^4 + x^4"]
    assert record["lambda2"] == ["0"]
    assert record["all_passed"] is True
    assert set(record["checks"]) == {
        "complete_intersection",
        "hilbert_function",
        "jordan_type",
        "initial_ideal",
        "hessian_vanishing",
        "hessian_ranks",
    }
    assert record["checks"]["jordan_type"] == {
        "passed": True,
        "expected": "6,2^3",
        "observed": "6,2^3",
    }
    assert all(set(c) == {"passed", "expected", "observed"} for c in record["checks"].values())

    code, out, _ = run_cli("realize", "--all", "1,2,2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"hilbert", "passed", "total", "realizations"}
    assert data["hilbert"] == "1,2^2,1"
    assert data["passed"] == data["total"] == 4
    assert [r["partition"] for r in data["realizations"]] == [
        str(P) for P in enumerate_cijt(HilbertFunction("1,2,2,1"))
    ]
    assert all(r["all_passed"] for r in data["realizations"])


def test_realize_requires_exactly_one_target():
    code, _, err = run_cli("realize")
    assert code == 2 and err
    code, _, err = run_cli("realize", "6,4,2", "--all", "1,2,3,3,2,1")
    assert code == 2 and err


# -- jordan ----------------------------------------------------------------------


def test_jordan_inline_ideal():
    code, out, _ = run_cli("jordan", "x*y, x^3+y^3", "--ell", "x", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["jordan_type"] == "4,1^2"
    assert data["nonvanishing"] == [0]


def test_jordan_dual_generator():
    code, out, _ = run_cli("jordan", "--dual", "X^2*Y^3", "--ell", "x+y")
    assert code == 0
    assert "jordan type of y + x: 6,4,2" in out


def test_jordan_dual_checks_every_hessian_rank(monkeypatch):
    # each reported rank, from the moved diagram, is compared with the
    # Hessian rank read off F at the primitive point of ell; the output
    # is the same with the check counted
    argv = ("jordan", "--dual", "X^5 + 3*X^2*Y^3 - Y^5", "--ell", "-2x+4y")
    want = run_cli(*argv)
    real = hessians.hessian_rank_at
    asked = []

    def counting(F, i, point, algebra=None):
        asked.append((i, point))
        return real(F, i, point, algebra=algebra)

    monkeypatch.setattr(cli, "hessian_rank_at", counting)
    assert run_cli(*argv) == want and want[0] == 0
    assert asked == [(i, (-2, 4)) for i in range(3)]
    assert "hessian ranks: 1,2,3" in want[1]


def test_jordan_dual_raises_on_a_wrong_hessian_rank(monkeypatch):
    # a wrong rank from the Berlekamp-Massey side is a bug: it raises
    # InternalInconsistency, which no exit code stands for, so it surfaces
    # with its traceback instead of printing the report.  hessian_rank_at
    # reads the ranks through the unchecked reader, so that is the one
    # patched
    real = hessians._d_sequence

    def wrong(F, a, b):
        ranks = real(F, a, b)
        return (*ranks[:-1], ranks[-1] + 1)  # the order 0 is off by one

    monkeypatch.setattr(hessians, "_d_sequence", wrong)
    with pytest.raises(InternalInconsistency, match="order 0"):
        run_cli("jordan", "--dual", "X^5 + 3*X^2*Y^3 - Y^5", "--ell", "x+y")
    # an ideal given by generators has no F to check against
    assert run_cli("jordan", "x^2*y, y^4+x^4", "--ell", "x+y")[0] == 0


@pytest.mark.parametrize("source", [("x^2,y^2",), ("--dual", "X*Y")], ids=["ideal", "dual"])
@pytest.mark.parametrize("ell", ["0", "1", "x^2"])
def test_jordan_bad_linear_form_exits_2(source, ell):
    code, out, err = run_cli("jordan", *source, "--ell", ell)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_jordan_ideal_from_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("x^2, y^3")
    code, out, _ = run_cli("jordan", str(path), "--ell", "y", "--format", "json")
    assert code == 0
    assert json.loads(out)["jordan_type"] == "3^2"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jtlab", "classify", "6,4,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cijt: yes" in proc.stdout
