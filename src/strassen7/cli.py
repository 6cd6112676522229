"""Command-line interface wiring the pipeline together:
derive -> serialize -> verify -> multiply -> bench.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

from . import fileformat
from .construction import (
    COL_HEADS,
    ROW_HEADS,
    TABLE,
    _default_perp,
    build_basis,
    cell_name,
    default_rotation,
    derive_decomposition,
    perp_vector,
    validate_rotation,
    word_name,
)
from .engine import EngineConfig, MatN, bench, bench_csv, bench_text, strassen_multiply
from .fields import _DIGITS, Field, InputError, PrimeField, _decimal, parse_field
from .fileformat import MalformedFileError
from .linalg import ColVec2, Mat2
from .verification import (
    DEFAULT_PAIR_BUDGET,
    verify_bilinear_identity,
    verify_exhaustive_gf,
    verify_multiplication_table,
    verify_trilinear,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# Every library input error subclasses InputError, JSON decode errors
# included (as MalformedFileError); anything else is a bug and exits 3.
_INPUT_ERRORS = (InputError, OSError)


class UsageError(InputError):
    """A flag's value is missing, malformed or beyond its bound."""


def _parse_scalars(field: Field, text: str, count: int, what: str) -> list:
    cells = [c.strip() for c in text.split(",")]
    if len(cells) != count:
        raise UsageError(f"{what} needs {count} comma-separated scalars")
    return [field.parse_scalar(c) for c in cells]


def _rotation_and_perp(args):
    """--field, then --d (or the default rotation), then --u (or the
    default vector) and its perp."""
    field = parse_field(args.field)
    if args.d is not None:
        rot = validate_rotation(Mat2(field, _parse_scalars(field, args.d, 4, "--d")))
    else:
        rot = default_rotation(field)
    if args.u is None:
        return rot, _default_perp(rot)
    return rot, perp_vector(rot, ColVec2(field, _parse_scalars(field, args.u, 2, "--u")))


def _read(path: str, reader):
    """``reader(file)`` for the file at ``path`` opened as text; a file that
    does not decode as text is malformed."""
    try:
        with open(path) as file:
            return reader(file)
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path} is not text: {exc.reason}") from None


def _load_decomposition(path: str):
    return _read(path, lambda file: fileformat.parse(file.read()))


def _cmd_derive(args) -> int:
    dec = derive_decomposition(*_rotation_and_perp(args))
    report = verify_bilinear_identity(dec)
    if not report.passed:
        print(f"derivation failed verification: {report.render()}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    Path(args.out).write_text(fileformat.serialize(dec))
    print(f"wrote {args.out}: rank {dec.rank} over {dec.field.name}; {report.render()}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    dec = _load_decomposition(args.path)
    if dec.rank != 7:
        print(f"note: rank {dec.rank} decomposition (not a 7-term algorithm)")
    reports, timing = {}, {}
    reports["bilinear"] = verify_bilinear_identity(dec)
    print(f"bilinear identity (unit pairs): {reports['bilinear'].render()}")
    reports["trilinear"] = verify_trilinear(dec)
    print(f"trilinear trace identity (unit triples): {reports['trilinear'].render()}")
    if args.exhaustive:
        if isinstance(dec.field, PrimeField):
            start = time.perf_counter()
            report = verify_exhaustive_gf(dec, budget=args.budget)
            elapsed = time.perf_counter() - start
            reports["exhaustive"] = report
            rate = report.checks_run / elapsed
            timing["exhaustive"] = {"elapsed_s": elapsed, "pairs_per_s": rate}
            verdict = "passed" if report.passed else report.render()
            print(f"exhaustive sweep: {report.checks_run} pairs checked, {verdict} "
                  f"({elapsed * 1e3:.1f} ms, {rate:,.0f} pairs/s)")
        else:
            print(f"exhaustive sweep skipped: {dec.field.name} is not a prime field")
    if args.json:
        payload = {name: r.to_dict() | timing.get(name, {}) for name, r in reports.items()}
        print(json.dumps(payload, indent=2))
    if all(r.passed for r in reports.values()):
        return EXIT_OK
    return EXIT_VERIFICATION_FAILED


def _cmd_table(args) -> int:
    report = verify_multiplication_table(build_basis(*_rotation_and_perp(args)))
    cells = [[""] + [word_name(w) for w in COL_HEADS]]
    for head, row in zip(ROW_HEADS, TABLE):
        cells.append([word_name(head)] + [cell_name(entry) for entry in row])
    widths = [max(len(r[c]) for r in cells) for c in range(5)]
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"verification: {report.render()}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_multiply(args) -> int:
    dec = _load_decomposition(args.path)
    if args.random is not None:
        rng = random.Random(args.seed)
        a = MatN.random(dec.field, args.random, rng)
        b = MatN.random(dec.field, args.random, rng)
    else:
        if args.a is None or args.b is None:
            raise UsageError("provide --a and --b matrix files, or --random N")
        a = _read(args.a, fileformat.read_matrix)
        b = _read(args.b, fileformat.read_matrix)
    result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=args.cutoff))
    print(fileformat.format_matrix(result), end="")
    print(f"scalar multiplications: {counter.mults}")
    print(f"scalar additions: {counter.adds}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    dec = _load_decomposition(args.path)
    cells = [s.strip() for s in args.sizes.split(",") if s.strip()]
    if not all(map(_DIGITS.fullmatch, cells)):
        raise UsageError(f"--sizes {args.sizes!r}: not comma-separated integers")
    if not cells:
        raise UsageError(f"--sizes {args.sizes!r}: no sizes given")
    sizes = [_decimal(s, UsageError) for s in cells]
    rows = bench(dec, sizes, EngineConfig(cutoff=args.cutoff), seed=args.seed)
    print(bench_csv(rows) if args.csv else bench_text(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strassen7",
        description="Derive, verify, and apply rank-7 bilinear 2x2 matrix "
        "multiplication over exact fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the (D, u) flags that derive and table share
    rotation = argparse.ArgumentParser(add_help=False)
    rotation.add_argument("--field", required=True, help="rational | gf(p)")
    rotation.add_argument("--d", help="rotation matrix entries a11,a12,a21,a22")
    rotation.add_argument("--u", help="column vector entries u1,u2")

    p = sub.add_parser("derive", parents=[rotation],
                       help="derive a decomposition and write it to a file")
    p.add_argument("--out", required=True, help="output decomposition file")

    p = sub.add_parser("verify", help="verify a decomposition file")
    p.add_argument("path")
    p.add_argument("--exhaustive", action="store_true",
                   help="also sweep all matrix pairs (prime fields)")
    p.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET,
                   help="pair budget for the exhaustive sweep")
    p.add_argument("--json", action="store_true", help="also emit reports as JSON")

    sub.add_parser("table", parents=[rotation],
                   help="print and check the basis multiplication table")

    p = sub.add_parser("multiply", help="multiply two matrices with a decomposition")
    p.add_argument("path")
    p.add_argument("--a", help="left matrix file")
    p.add_argument("--b", help="right matrix file")
    p.add_argument("--random", type=int, metavar="N",
                   help="use seeded random N x N matrices instead of files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=1)

    p = sub.add_parser("bench", help="operation counts and exact-product timings")
    p.add_argument("path")
    p.add_argument("--sizes", required=True, help="comma-separated dimensions")
    p.add_argument("--cutoff", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs about a millisecond, and
    parse_args keeps no state between calls."""
    return build_parser()


def cli_main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so the handler is always the module's current one
        return globals()[f"_cmd_{args.command}"](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, not bad input: keep it apart from exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
