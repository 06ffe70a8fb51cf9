"""Compare fresh benchmark reports against the committed baselines.

CI runs the performance-tracking benchmarks (``bench_evaluation.py``,
``bench_pareto.py``), then invokes this script to compare the fresh JSON
reports in ``benchmarks/output/`` against the baselines committed at the
repository root (``BENCH_evaluation.json``, ``BENCH_pareto.json``).  The
result is a markdown table -- printed to stdout and appended to
``$GITHUB_STEP_SUMMARY`` when set -- showing every tracked metric
(speedups, wall-clock seconds, hit rates) next to its baseline.

Per the noisy-runner note in ``benchmarks/README.md``, wall-clock deltas
are **reported, never gated**: shared CI runners make hard ratio thresholds
flaky.  The script fails (exit 1) only on bit-for-bit *equivalence*
violations -- a fresh report whose ``equivalence.verified`` flag is not
true, or a missing/unreadable report, means a fast path no longer
reproduces the reference results exactly, which is a correctness bug
regardless of machine load.  For ``bench_evaluation.json`` specifically,
the required equivalence keys (``REQUIRED_EQUIVALENCE_KEYS``) must also
*exist* and hold -- the golden-front and frozen-artifact round-trip
verdicts cannot silently drop out of the report -- and the
``population_1000``, ``selection_variation`` and ``serving`` sections are
summarized in their own blocks so the n=1000 trajectory, the variation
cost and the serving latency percentiles stay visible in every step
summary.

To refresh the baselines after an intentional change, run the benchmarks
locally and copy the outputs over the committed files::

    PYTHONPATH=src python -m pytest benchmarks/bench_evaluation.py \\
        benchmarks/bench_pareto.py -q
    cp benchmarks/output/bench_evaluation.json BENCH_evaluation.json
    cp benchmarks/output/bench_pareto.json BENCH_pareto.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: (baseline file at the repo root, fresh file under benchmarks/output/).
REPORT_PAIRS = (
    ("BENCH_evaluation.json", "bench_evaluation.json"),
    ("BENCH_pareto.json", "bench_pareto.json"),
)

#: Numeric leaves worth tabulating (suffix match on the flattened key).
TRACKED_SUFFIXES = (
    "speedup",
    "_seconds",
    "_ms",
    "hit_rate",
    "per_second",
    "store_bytes",
    "store_entries",
)

#: Equivalence verdicts that must be present *and* true in a fresh
#: bench_evaluation.json: "verified" aggregates whatever keys the report
#: happens to contain, so a section silently dropping out of the benchmark
#: would otherwise pass the gate unnoticed.
REQUIRED_EQUIVALENCE_KEYS = {
    "bench_evaluation.json": (
        "golden_fronts",
        "artifact_roundtrip",
    ),
}

#: Sections surfaced as their own summary block (key prefix on the
#: flattened metrics), so headline scaling numbers are readable without
#: scanning the full table.
HIGHLIGHT_SECTIONS = {
    "bench_evaluation.json": ("population_1000", "selection_variation", "serving"),
}


def flatten(document, prefix=""):
    """Flatten nested dicts/lists to ``dotted.path -> leaf`` pairs."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield from flatten(value, f"{prefix}{key}.")
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from flatten(value, f"{prefix}{index}.")
    else:
        yield prefix.rstrip("."), document


def tracked_metrics(document):
    """The flattened numeric metrics a trajectory table should show."""
    metrics = {}
    for key, value in flatten(document):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if any(key.endswith(suffix) for suffix in TRACKED_SUFFIXES):
            metrics[key] = value
    return metrics


def load_report(path: Path):
    """The parsed JSON report, or ``None`` when missing/unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def format_value(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_delta(baseline, fresh):
    if baseline == 0:
        return "n/a"
    change = (fresh - baseline) / abs(baseline)
    return f"{change:+.1%}"


def compare_pair(baseline_path: Path, fresh_path: Path):
    """Markdown lines plus the pair's equivalence verdict (None = missing)."""
    lines = [f"### `{fresh_path.name}` vs baseline `{baseline_path.name}`", ""]
    fresh = load_report(fresh_path)
    if fresh is None:
        lines.append(f"**missing or unreadable fresh report** at `{fresh_path}`")
        return lines, None
    equivalence = fresh.get("equivalence", {})
    verified = bool(equivalence.get("verified", False))
    missing_required = [
        key
        for key in REQUIRED_EQUIVALENCE_KEYS.get(fresh_path.name, ())
        if equivalence.get(key) is not True
    ]
    if missing_required:
        verified = False
        lines.append(
            "required equivalence keys missing or false: "
            + ", ".join(f"`{key}`" for key in missing_required)
        )
    state = "verified" if verified else "**VIOLATED**"
    lines.append(f"bit-for-bit equivalence: {state}")
    lines.append("")

    for section in HIGHLIGHT_SECTIONS.get(fresh_path.name, ()):
        body = fresh.get(section)
        if not isinstance(body, dict):
            lines.append(
                f"**missing `{section}` section** -- the scaling numbers "
                "dropped out of the report"
            )
            lines.append("")
            continue
        highlights = ", ".join(
            f"{key}={format_value(value)}"
            for key, value in body.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        )
        lines.append(f"**`{section}`**: {highlights}")
        lines.append("")

    baseline = load_report(baseline_path)
    if baseline is None:
        lines.append(
            f"no committed baseline at `{baseline_path}` -- copy the fresh "
            "report there to start the trajectory"
        )
        return lines, verified

    baseline_metrics = tracked_metrics(baseline)
    fresh_metrics = tracked_metrics(fresh)
    lines.append("| metric | baseline | fresh | delta |")
    lines.append("|---|---:|---:|---:|")
    for key in sorted(set(baseline_metrics) | set(fresh_metrics)):
        old = baseline_metrics.get(key)
        new = fresh_metrics.get(key)
        if old is None or new is None:
            old_text = format_value(old) if old is not None else "--"
            new_text = format_value(new) if new is not None else "--"
            lines.append(f"| `{key}` | {old_text} | {new_text} | n/a |")
        else:
            lines.append(
                f"| `{key}` | {format_value(old)} | {format_value(new)} "
                f"| {format_delta(old, new)} |"
            )
    return lines, verified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--baseline-dir",
        default=str(Path(__file__).resolve().parent.parent),
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        default=str(Path(__file__).resolve().parent / "output"),
        help="directory holding the fresh bench_*.json reports",
    )
    parser.add_argument(
        "--summary",
        default=os.environ.get("GITHUB_STEP_SUMMARY", ""),
        help="markdown file to append the table to (default: "
        "$GITHUB_STEP_SUMMARY when set)",
    )
    arguments = parser.parse_args(argv)

    lines = ["## Benchmark trajectory", ""]
    lines.append(
        "Wall-clock deltas are informational (shared runners are noisy); "
        "only equivalence violations fail this step."
    )
    lines.append("")
    failures = []
    for baseline_name, fresh_name in REPORT_PAIRS:
        pair_lines, verified = compare_pair(
            Path(arguments.baseline_dir) / baseline_name,
            Path(arguments.fresh_dir) / fresh_name,
        )
        lines.extend(pair_lines)
        lines.append("")
        if verified is None:
            failures.append(f"{fresh_name}: fresh report missing or unreadable")
        elif not verified:
            failures.append(f"{fresh_name}: bit-for-bit equivalence violated")

    if failures:
        lines.append("### FAILURES")
        lines.extend(f"- {failure}" for failure in failures)
        lines.append("")

    text = "\n".join(lines)
    print(text)
    if arguments.summary:
        with open(arguments.summary, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")

    if failures:
        print("bench-trajectory gate FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
