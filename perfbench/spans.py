"""In-memory spans around the benchmark's calls into strassen7, and the
per-layer metrics derived from them.

A span records a name (``module.function``), start and end times from
``time.perf_counter``, the index of its parent span, the op id it belongs
to, and any counts noted on it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time


class Tracer:
    """Wraps calls in spans while ``enabled``; otherwise calls straight
    through, so the untraced loop runs the same op code."""

    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans = []
        self._open = []
        self._last = None

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = {
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            self._last = span

    def note(self, **counts):
        """Attach counts to the span that closed last."""
        if self.enabled:
            self._last.update(counts)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_scale) -> dict:
    """Per-layer metrics over the traced ops, the keys of ``op_scale``
    (whole field cycles), with each op's span times multiplied by its
    ``op_scale`` value.

    ``*_ms`` values are mean milliseconds per op spent in that call, 0 on
    workloads whose ops never make it; ``*_per_op`` values are mean counts
    per op; per-call and per-term costs divide total span time by the
    calls or terms noted on the spans.
    """
    seconds: dict = {}
    counts: dict = {}
    for s in spans:
        if s["op"] not in op_scale:
            continue
        name = s["name"]
        seconds[name] = seconds.get(name, 0.0) + (s["end"] - s["start"]) * op_scale[s["op"]]
        for key, value in s.items():
            if isinstance(value, int) and key not in ("op", "parent"):
                counts[name, key] = counts.get((name, key), 0) + value

    k = len(op_scale)

    def ms(name):
        return seconds.get(name, 0.0) * 1e3 / k

    def count(name, key):
        return counts.get((name, key), 0)

    strassen = "engine.strassen_multiply"
    mults, adds = count(strassen, "mults"), count(strassen, "adds")
    exhaustive = "verification.verify_exhaustive_gf"
    verifiers = (
        "verification.verify_bilinear_identity",
        "verification.verify_trilinear",
        "verification.verify_multiplication_table",
        exhaustive,
    )
    return {
        "engine.strassen_ms": ms(strassen),
        "engine.classical_ms": ms("engine.classical_multiply"),
        "engine.mults_per_op": mults / k,
        "engine.adds_per_op": adds / k,
        "engine.mults_over_classical": _ratio(mults, count(strassen, "classical_mults")),
        "engine.ns_per_scalar_op": _ratio(seconds.get(strassen, 0.0) * 1e9, mults + adds),
        "fields.mul_ns": _ratio(seconds.get("fields.mul", 0.0) * 1e9, count("fields.mul", "calls")),
        "fields.add_ns": _ratio(seconds.get("fields.add", 0.0) * 1e9, count("fields.add", "calls")),
        "fields.dot_ns_per_term": _ratio(
            seconds.get("fields.dot", 0.0) * 1e9, count("fields.dot", "terms")
        ),
        "linalg.matmul_us": _ratio(
            seconds.get("linalg.Mat2.__matmul__", 0.0) * 1e6,
            count("linalg.Mat2.__matmul__", "calls"),
        ),
        "construction.validate_ms": ms("construction.validate_rotation"),
        "construction.perp_ms": ms("construction.perp_vector"),
        "construction.derive_ms": ms("construction.derive_decomposition"),
        "construction.basis_ms": ms("construction.build_basis"),
        "fileformat.serialize_ms": ms("fileformat.serialize"),
        "fileformat.parse_ms": ms("fileformat.parse"),
        "fileformat.bytes_per_op": count("fileformat.serialize", "bytes") / k,
        "verification.bilinear_ms": ms(verifiers[0]),
        "verification.trilinear_ms": ms(verifiers[1]),
        "verification.table_ms": ms(verifiers[2]),
        "verification.exhaustive_ms": ms(exhaustive),
        "verification.exhaustive_pairs_per_s": _ratio(
            count(exhaustive, "checks"), seconds.get(exhaustive, 0.0)
        ),
        "verification.checks_per_op": sum(count(v, "checks") for v in verifiers) / k,
        "cli.multiply_ms": ms("cli.cli_main"),
    }
