"""Command line surface: enumeration, classification, table reproduction,
realization, and Jordan type computation.

Exit codes: 0 success, 1 verification failure, 2 parse/shape error,
3 partition/Hilbert-function mismatch, 4 not a CIJT partition,
5 quotient not Artinian.  Data goes to stdout, diagnostics to stderr.

Commands return 0 or 1 and raise every other outcome.  `EXIT_CODES` is the
single source of the codes 2-5: `main` resolves a raised error along its
class's MRO in that table and writes one `error:` line.
`InternalInconsistency` is left out of the table on purpose: it signals a
bug, not bad input, so it propagates with its traceback.  `jordan --dual F`
raises it when a Hessian rank of F, read off F alone, differs from the
multiplication rank that it reports.

The module writes rows and reports; the rules behind their columns live
where they belong.  classification_row is the one row function of every
table and of classify: codes._hook_code_columns writes both hook-code
columns, and hessians._hessian_columns reads both Hessian columns off a
rank source, the predicted rank profile for a row and rank_mult_power on
the algebra for `jordan`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import partial

from .algebra import (
    GradedIdeal,
    annihilator,
    initial_ideal,
    jordan_degree_type,
    quotient,
    rank_mult_power,
    require_linear,
)
from .codes import (
    _hook_code_columns,
    diagonal_partition_count,
    enumerate_cijt,
    enumerate_diagonal_partitions,
    hook_counts_by_degree,
    is_cijt,
    iota,
    partition_to_branch_label,
)
from .constructor import construct_ci, realize_all, verify_realization
from .errors import (
    BudgetExceeded,
    DiagonalMismatch,
    InternalInconsistency,
    NotArtinian,
    NotCIJT,
    NotCIShape,
    ParseError,
    ZeroInput,
)
from .hessians import (
    _hessian_columns,
    active_hessian_indices,
    hessian_rank_at,
    predicted_rank_profile,
)
from .partitions import (
    MAX_PARTS,
    HilbertFunction,
    Partition,
    diagonal_lengths,
    format_caret_list,
    hilbert_function,
    is_symmetric_jdt,
)
from .polynomials import parse_poly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_NOT_CIJT = 4
EXIT_NOT_ARTINIAN = 5

# Error class -> exit code, looked up along type(exc).__mro__.
EXIT_CODES = {
    DiagonalMismatch: EXIT_MISMATCH,
    NotCIJT: EXIT_NOT_CIJT,
    NotArtinian: EXIT_NOT_ARTINIAN,
    ParseError: EXIT_PARSE,
    NotCIShape: EXIT_PARSE,
    BudgetExceeded: EXIT_PARSE,
    ZeroInput: EXIT_PARSE,
}

# Most rows a classification table may have; larger ones are refused before
# anything is enumerated.  T(10, k) has 2*3^9 = 39366 rows, T(11, k) has
# 118098 (59049 for k = 1), and d = 15 would build 9.6M branch labels.
MAX_TABLE_ROWS = 40_000


# ---------------------------------------------------------------------------
# row assembly


def classification_row(P, T):
    """All tabulated facts about one partition of diagonal lengths T, the
    one row function of every table and of classify.

    Both hook-code columns are written by codes._hook_code_columns from
    one walk of the branch label, and no HookCode is built: the label P was
    glued from when the enumeration built P, else the label read off the
    diagram and validated (NotCIShape when P's diagonal lengths are not
    CI-shaped).  T itself serves the symmetric and Hessian columns, so a T
    that is not P's raises DiagonalMismatch.  A CIJT row reads both
    Hessian columns off its predicted rank profile with
    hessians._hessian_columns: the ranks at the active orders and the
    orders where the rank is full, as predicted_nonvanishing_set states
    them.
    """
    label = partition_to_branch_label(P)
    hook_code, subscripted = _hook_code_columns(label, hilbert_function(P))
    cijt = is_cijt(P)
    row = {
        "partition": str(P),
        "hook_code": hook_code,
        "branch_label": str(label),
        "subscripted_hook_code": subscripted,
        "symmetric": is_symmetric_jdt(P, T),
        "cijt": cijt,
        "hessian_ranks": None,
        "nonvanishing": None,
    }
    if cijt:
        profile = predicted_rank_profile(P)
        row["hessian_ranks"], row["nonvanishing"] = _hessian_columns(T, lambda u, s: profile[u, s])
    return row


def _rank_cells(row, T):
    """Rank column text: the rank, starred when that Hessian vanishes,
    or '-' for non-CIJT rows."""
    active = active_hessian_indices(T)
    if row["hessian_ranks"] is None:
        return ["-"] * len(active)
    nonvan = set(row["nonvanishing"])
    return [
        f"{rank}" if i in nonvan else f"{rank}*"
        for i, rank in zip(active, row["hessian_ranks"])
    ]


def _yn(flag):
    return "Y" if flag else "N"


# ---------------------------------------------------------------------------
# rendering


def render_plain(headers, rows_text, out):
    widths = [
        max(len(h), *(len(r[c]) for r in rows_text)) if rows_text else len(h)
        for c, h in enumerate(headers)
    ]
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in rows_text:
        out.write(" | ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def render_csv(headers, rows_text, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows_text)


def _write_json(obj, out):
    """The one JSON writer of every command: sorted keys, indent 2, and a
    closing newline."""
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")


def emit_table(data, fmt, out):
    """data: {"headers": [...], "rows_text": [...], "structured": {...}}."""
    if fmt == "json":
        _write_json(data["structured"], out)
    elif fmt == "csv":
        render_csv(data["headers"], data["rows_text"], out)
    else:
        render_plain(data["headers"], data["rows_text"], out)


def _refuse_over_cap(T, count, verb):
    """Raise BudgetExceeded, before anything is enumerated, when a command
    would verb count partitions of diagonal lengths T, over MAX_TABLE_ROWS."""
    if count > MAX_TABLE_ROWS:
        raise BudgetExceeded(
            f"T(d={T.d}, k={T.k}) would {verb} {count} partitions, "
            f"over the cap of {MAX_TABLE_ROWS}"
        )


def classification_table(T, cijt_only=False, with_subscripts=False):
    """Classification rows of the partitions of diagonal lengths T, sorted
    by parts in descending order.  With cijt_only, the rows of the CIJT
    partitions alone, built from enumerate_cijt without gluing the others.
    Either way the table is refused, before anything is enumerated, when T
    has more than MAX_TABLE_ROWS partitions."""
    _refuse_over_cap(T, diagonal_partition_count(T), "enumerate")
    if cijt_only:
        partitions = sorted(enumerate_cijt(T), key=lambda P: P.parts, reverse=True)
    else:
        partitions = enumerate_diagonal_partitions(T)
    rows = [classification_row(P, T) for P in partitions]
    active = active_hessian_indices(T)
    headers = ["P", "hook_code", "branch_label"]
    headers += [f"rk_hess_{i}" for i in active]
    headers += ["symmetric", "cijt"]
    if with_subscripts:
        headers.append("subscripted")
    rows_text = []
    for row in rows:
        cells = [row["partition"], row["hook_code"], row["branch_label"]]
        cells += _rank_cells(row, T)
        cells += [_yn(row["symmetric"]), _yn(row["cijt"])]
        if with_subscripts:
            cells.append(row["subscripted_hook_code"])
        rows_text.append(cells)
    structured = {"hilbert": str(T), "rows": rows}
    return {"headers": headers, "rows_text": rows_text, "structured": structured}


def pattern_table(T):
    """Two-column table pairing each d-part CIJT partition with its
    rectangle flip."""
    d = T.d
    with_d = sorted(
        (P for P in enumerate_cijt(T) if len(P) == d),
        key=lambda P: P.parts,
        reverse=True,
    )
    rows = [{"partition": str(P), "iota": str(iota(P))} for P in with_d]
    return {
        "headers": ["P", "iota(P)"],
        "rows_text": [[r["partition"], r["iota"]] for r in rows],
        "structured": {"hilbert": str(T), "rows": rows},
    }


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args, out):
    T = HilbertFunction(args.hilbert)
    data = classification_table(T, cijt_only=args.cijt_only)
    emit_table(data, args.format, out)
    return EXIT_OK


# The facts of a classification row that classify reports, in its order.
_CLASSIFY_KEYS = (
    "cijt",
    "branch_label",
    "hook_code",
    "subscripted_hook_code",
    "symmetric",
    "nonvanishing",
    "hessian_ranks",
)


def cmd_classify(args, out):
    P = Partition(args.partition)
    diag = diagonal_lengths(P)
    if args.hilbert is not None:
        T_given = HilbertFunction(args.hilbert)
        if T_given.values != diag:
            raise DiagonalMismatch(
                f"diagonal lengths of {P} are {format_caret_list(diag)}, not {T_given}"
            )
    report = {"partition": str(P), "diagonal_lengths": format_caret_list(diag)}
    try:
        T = HilbertFunction(diag)
    except NotCIShape:
        counts = sorted(hook_counts_by_degree(P).items())
        report.update(ci_shape=False, cijt=False, hook_counts={str(deg): c for deg, c in counts})
    else:
        row = classification_row(P, T)
        report["ci_shape"] = True
        report.update((key, row[key]) for key in _CLASSIFY_KEYS)
        if row["cijt"]:
            profile = sorted(predicted_rank_profile(P).items())
            report["rank_profile"] = {f"{u}->{s}": rank for (u, s), rank in profile}
    if args.format == "json":
        _write_json(report, out)
    else:
        for key, value in report.items():
            if isinstance(value, bool):
                value = "yes" if value else "no"
            elif isinstance(value, dict):
                value = ", ".join(f"{k}: {v}" for k, v in value.items())
            elif isinstance(value, list):
                value = "{" + ",".join(map(str, value)) + "}"
            elif value is None:
                value = "-"
            out.write(f"{key}: {value}\n")
    return EXIT_OK


def _realization_record(P, realization, report):
    return {
        "partition": str(P),
        "generators": [g.text() for g in realization.ideal.generators],
        "lambda2": [str(v) for v in realization.lambdas],
        "checks": report.as_dict(),
        "all_passed": report.all_passed,
    }


def _print_report(P, realization, report, fmt, out):
    if fmt == "json":
        _write_json(_realization_record(P, realization, report), out)
    else:
        out.write(f"partition: {P}\n")
        out.write(f"generators: {realization}\n")
        if realization.lambdas:
            out.write(
                "lambda_2: (" + ", ".join(str(v) for v in realization.lambdas) + ")\n"
            )
        out.write(str(report) + "\n")


def cmd_realize(args, out):
    seed = None if args.alpha_zero else args.seed
    fmt = args.format
    if args.all is not None:
        T = HilbertFunction(args.all)
        _refuse_over_cap(T, 2**T.branches, "realize")  # one per CIJT
        results = realize_all(T, seed=seed)
        passed = sum(report.all_passed for _, _, report in results)
        if fmt == "json":
            _write_json(
                {
                    "hilbert": str(T),
                    "passed": passed,
                    "total": len(results),
                    "realizations": [
                        _realization_record(P, realization, report)
                        for P, realization, report in results
                    ],
                },
                out,
            )
        else:
            for P, realization, report in results:
                _print_report(P, realization, report, fmt, out)
                out.write("\n")
            out.write(f"{passed}/{len(results)} realizations passed all checks\n")
        return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED
    P = Partition(args.partition)
    realization = construct_ci(P, seed=seed)
    report = verify_realization(realization)
    _print_report(P, realization, report, fmt, out)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _parse_ideal_arg(text):
    """Inline comma-separated generators, or a path to a file holding them."""
    if os.path.isfile(text):
        try:
            with open(text) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read ideal file {text!r}: {exc}") from exc
    gens = [parse_poly(piece) for piece in text.split(",") if piece.strip()]
    if not gens:
        raise ParseError(f"no generators in {text!r}")
    return GradedIdeal(gens)


def cmd_jordan(args, out):
    ell = require_linear(parse_poly(args.ell))
    if args.dual is not None:
        F = parse_poly(args.dual)
        ideal = annihilator(F)
    else:
        ideal = _parse_ideal_arg(args.ideal)
    A = quotient(ideal)
    jdt = jordan_degree_type(A, ell)
    report = {
        "ideal": str(ideal),
        "hilbert": format_caret_list(A.hilbert),
        "ell": ell.text(),
        "jordan_type": str(jdt.partition()),
        "jordan_degree_type": [
            {"start": i, "length": s, "multiplicity": m} for (i, s), m in jdt.strings
        ],
        "initial_partition": str(initial_ideal(A, ell).partition),
    }
    report["nonvanishing"] = report["hessian_ranks"] = None
    # the algebra's HilbertFunction, None when it is not CI-shaped
    if (T := A._ci_hilbert) is not None:
        ranks, report["nonvanishing"] = _hessian_columns(T, partial(rank_mult_power, A, ell))
        report["hessian_ranks"] = ranks
        if args.dual is not None:
            _cross_check_hessian_ranks(F, A, ell, ranks)
    if args.format == "json":
        _write_json(report, out)
    else:
        out.write(f"ideal: ({report['ideal']})\n")
        out.write(f"hilbert function: {report['hilbert']}\n")
        out.write(f"jordan type of {report['ell']}: {report['jordan_type']}\n")
        out.write(f"jordan degree type: {jdt}\n")
        out.write(f"initial-ideal partition: {report['initial_partition']}\n")
        if report["nonvanishing"] is not None:
            out.write("nonvanishing hessians: {" + ",".join(map(str, report["nonvanishing"])) + "}\n")
            out.write("hessian ranks: " + ",".join(map(str, report["hessian_ranks"])) + "\n")
    return EXIT_OK


def _cross_check_hessian_ranks(F, A, ell, ranks):
    """Raise InternalInconsistency unless the rank of the i-th Hessian of F
    at ell's point equals ranks[i], the rank of ell^(j-2i): A_i -> A_(j-i)
    on A = R/Ann(F).  The two are read independently: the Hessian rank off
    F alone, the multiplication rank off the moved Ferrers diagram of A."""
    point = (ell.coefficient(1, 0), ell.coefficient(0, 1))
    for i, want in enumerate(ranks):
        got = hessian_rank_at(F, i, point, algebra=A)
        if got != want:
            raise InternalInconsistency(
                f"the Hessian of order {i} of {F.text(('X', 'Y'))} has rank {got} at "
                f"{ell.text()}, but multiplication by its power of degree "
                f"{A.socle_degree - 2 * i} has rank {want}"
            )


_FIGURE_HILBERTS = {
    "2a-121": "1,2,1",
    "2a-1221": "1,2,2,1",
    "2a-12321": "1,2,3,2,1",
    "9": "1,2,3,3,2,1",
}


def _figure_k(param, fid, d):
    """The k of a figure id such as '3a:2', a positive integer for which
    T(d, k) has at most MAX_PARTS entries, and so every partition of it at
    most MAX_PARTS parts."""
    try:
        k = int(param)
    except ValueError:
        k = 0
    if k < 1:
        raise ParseError(f"k must be a positive integer in {fid!r}")
    entries = 2 * d + k - 2
    if entries > MAX_PARTS:
        raise BudgetExceeded(
            f"T(d={d}, k={k}) of {fid!r} has {entries} entries, over the cap of {MAX_PARTS}"
        )
    return k


def cmd_table(args, out):
    fid = args.figure
    name, _, param = fid.partition(":")
    if fid in _FIGURE_HILBERTS:
        T = HilbertFunction(_FIGURE_HILBERTS[fid])
        data = classification_table(T, with_subscripts=(name != "9"))
    elif name == "3a" and param:
        T = HilbertFunction.from_dk(2, _figure_k(param, fid, 2))
        data = classification_table(T, with_subscripts=True)
    elif name in ("10.5", "11", "12") and param:
        d = {"10.5": 3, "11": 4, "12": 5}[name]
        data = pattern_table(HilbertFunction.from_dk(d, _figure_k(param, fid, d)))
    else:
        raise ParseError(f"unknown figure id {fid!r}")
    emit_table(data, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry


# the options of build_parser that take a value
_VALUE_OPTIONS = ("--all", "--seed", "--dual", "--ell", "--format")


def _join_form_values(argv):
    """argv with every word that is no option (--name, or -h) read as a
    value, since argparse reads a word with one leading minus as an option:
    joined to the option before it when that takes a value, --ell -x+y as
    --ell=-x+y, and otherwise a positional, moved past a "--" with every
    positional after it, in order, when it or one before it starts with a
    minus ("-x^2+y^2,x*y" --ell x as --ell=x -- "-x^2+y^2,x*y")."""
    out, tail = [], []
    for n, arg in enumerate(argv):
        if arg == "--":
            return [*out, "--", *tail, *argv[n + 1 :]]
        option = arg[:2] == "--" or arg == "-h"
        if not option and out and out[-1] in _VALUE_OPTIONS:
            out[-1] += "=" + arg
        elif not option and (tail or arg[:1] == "-"):
            tail.append(arg)
        else:
            out.append(arg)
    return [*out, "--", *tail] if tail else out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jtlab",
        description=(
            "Jordan types of linear forms on graded Artinian complete "
            "intersection quotients of k[x,y]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="all partitions of diagonal lengths T")
    p.add_argument("hilbert", help='Hilbert function, e.g. "1,2,3^2,2,1"')
    p.add_argument("--cijt-only", action="store_true")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify one partition")
    p.add_argument("partition", help='partition, e.g. "19^2,15^2,10^3,3^4"')
    p.add_argument("hilbert", nargs="?", default=None, help="expected diagonal lengths")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("realize", help="construct a CI ideal realizing P")
    p.add_argument("partition", nargs="?", default=None)
    p.add_argument("--all", metavar="T", default=None, help="realize every CIJT of T")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-zero", action="store_true", help="force Lambda_2 = 0")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("jordan", help="Jordan type of a linear form on R/I")
    p.add_argument("ideal", nargs="?", default=None, help="generators, inline or a file")
    p.add_argument("--dual", default=None, help="Macaulay dual generator F in X,Y")
    p.add_argument("--ell", required=True, help='linear form, e.g. "x+2y"')
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("table", help="reproduce a reference table")
    p.add_argument(
        "figure",
        help="one of 2a-121, 2a-1221, 2a-12321, 3a:k, 9, 10.5:k, 11:k, 12:k",
    )
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(_join_form_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "realize" and (args.partition is None) == (args.all is None):
            raise ParseError("give exactly one of a partition or --all T")
        if args.command == "jordan" and (args.ideal is None) == (args.dual is None):
            raise ParseError("give exactly one of an ideal or --dual F")
        return args.func(args, out)
    except tuple(EXIT_CODES) as exc:
        err.write(f"error: {exc}\n")
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
