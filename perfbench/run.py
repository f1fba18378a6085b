"""The povtrack benchmark.

    python3 perfbench/run.py --workload novel|ensemble|dense --seed N \
        --seconds S --trace 0|1

Run it from the root of a povtrack checkout; it imports the package
from ``src/`` and reads the fixtures in ``tests/data/``.  It generates
the workload's document from the seed, checks every output, measures
for about ``--seconds`` seconds and prints a human-readable report
followed by one JSON line:

* ``--trace 0``: the end-to-end metrics, with nothing wrapped;
* ``--trace 1``: the per-layer metrics, from repetitions in which every
  call into a povtrack module is wrapped in a span, interleaved with
  untraced repetitions that give ``trace_overhead``.

Times are calibrated seconds (see ``Clock``); with ``--trace 0`` the
report also gives each metric's raw wall seconds and calibration factor.
The exit status is 1 when an output check failed.  ``NOTES.md``
explains the workloads, the metrics and what each layer metric should
move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpora  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench"

OPS = ("track", "trace", "eval", "sweep", "write")

# workload -> seed -> (document, novel tile count or None)
WORKLOADS = {
    "novel": lambda seed: corpora.novel(seed, FIXTURES),
    "ensemble": lambda seed: (corpora.ensemble(seed), None),
    "dense": lambda seed: (corpora.dense(seed), None),
}

# Exact call counts, per sentence unless named *_calls, of one
# Engine.track_document ("track") and one evaluate ("eval") on an
# already parsed document: metric -> (pass, traced call).
COUNTED = {
    "model.main_clause_per_sentence":
        ("track", "model.FeatureSet.main_clause"),
    "model.soa_by_id_per_sentence":
        ("track", "model.FeatureSet.soa_by_id"),
    "model.clause_about_per_sentence":
        ("track", "model.FeatureSet.clause_about"),
    "engine.choose_soa_per_sentence":
        ("track", "engine.Engine.choose_state_of_affairs"),
    "engine.subjective_elements_per_sentence":
        ("track", "engine.Engine.subjective_elements"),
    "engine.eval_choose_soa_per_sentence":
        ("eval", "engine.Engine.choose_state_of_affairs"),
    "engine.eval_subjective_elements_per_sentence":
        ("eval", "engine.Engine.subjective_elements"),
    "evaluation.classify_calls": ("eval", "evaluation.classify_operation"),
}

SETUP_RUNS = 11
SETUP_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
              "t = time.perf_counter(); import povtrack; povtrack.Engine(); "
              "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# calibrated time

CAL_REFERENCE_S = 0.015
CAL_LOOPS = 6


@dataclass(frozen=True)
class _CalRecord:
    id: str
    who: frozenset
    flags: tuple


def _calibration_input() -> bytes:
    rng = random.Random(0)
    records = [{"id": f"r{i}", "who": [f"n{rng.randrange(60)}"
                                       for _ in range(rng.randint(0, 3))],
                "vp": {flag: True for flag in corpora.VP_FLAGS
                       if rng.random() < 0.3}}
               for i in range(2_500)]
    return json.dumps(records).encode("utf-8")


def _calibration_loop(data: bytes) -> int:
    records = json.loads(data)
    seen: frozenset = frozenset()
    built = []
    for record in records:
        who = frozenset(record["who"])
        seen = seen | who if len(seen) < 40 else who
        built.append(_CalRecord(record["id"], who,
                                tuple(sorted(record["vp"]))))
    json.dumps(records[:700], indent=2)
    return len(built) + len(seen)


class Clock:
    """Times operations in calibrated seconds.

    On a shared VM each virtual CPU's speed drifts by a third over
    seconds to minutes, and CPU time drifts with wall time.  So each
    operation is followed by ``CAL_LOOPS`` runs of a fixed stdlib-only
    loop (JSON decode, frozensets, small dataclasses, indented JSON
    encode; no povtrack code) on the same CPU, and a sample is reported
    as its wall time scaled by ``CAL_REFERENCE_S`` over the mean loop
    time just before and just after it: the seconds the operation would
    take on a machine where the loop takes 15 ms.  The loop's own time
    is never counted.
    """

    def __init__(self):
        self._data = _calibration_input()
        self._loops()
        self._last = self._loops()

    def _loops(self) -> list[float]:
        # without collections, so the loop's time does not depend on how
        # many objects happen to be alive
        out = []
        gc.disable()
        try:
            for _ in range(CAL_LOOPS):
                begin = time.perf_counter()
                _calibration_loop(self._data)
                out.append(time.perf_counter() - begin)
        finally:
            gc.enable()
        return out

    def measure(self, fn):
        """Run ``fn``; return its result, wall seconds and scale factor."""
        begin = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - begin
        after = self._loops()
        factor = CAL_REFERENCE_S / statistics.mean(self._last + after)
        self._last = after
        return result, wall, factor


# ---------------------------------------------------------------------------
# the workload


class Bench:
    """One generated document and the five operations run on it."""

    def __init__(self, workload: str, seed: int, work: Path):
        import povtrack
        from povtrack import cli

        self.pt, self.cli = povtrack, cli
        self.workload = workload
        document, self.tiles = WORKLOADS[workload](seed)
        self.data = corpora.encode(document)
        self.path = work / "doc.json"
        self.path.write_bytes(self.data)
        self.track_out = work / "track.tsv"
        self.trace_out = work / "trace.txt"
        self.ids = [item["id"] for item in document["items"]
                    if item["kind"] == "sentence"]
        self.clauses = sum(len(item["features"]["clauses"])
                           for item in document["items"]
                           if item["kind"] == "sentence")
        self.pins = checks.pinned(workload, seed)
        self.reference: dict[str, str] = {}  # op -> first digest
        self.texts: dict[str, str] = {}  # op -> first output
        self.attempted = 0
        self.failed = 0

    # -- the operations, timed as called --------------------------------

    def op_track(self):
        return self.cli.main(["track", str(self.path),
                              "--out", str(self.track_out)])

    def op_trace(self):
        return self.cli.main(["track", str(self.path), "--trace",
                              "--out", str(self.trace_out)])

    def op_eval(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(["eval", str(self.path), "--json"])
        return code, buffer.getvalue()

    def op_sweep(self):
        pt = self.pt
        out = []
        for policy in pt.SignificancePolicy:
            engine = pt.Engine(policy=policy)
            steps = engine.track_document(self.document)
            out.append((policy, steps, pt.evaluate(self.document, engine)))
        return out

    def op_write(self):
        return self.pt.dumps_document(self.document)

    # -- checks, never timed -----------------------------------------------

    def outcome(self, op: str, result) -> list[str]:
        """The problems found in one operation's output."""
        if op in ("track", "trace"):
            if result != 0:
                return [f"{op}: exit status {result}"]
            text = (self.track_out if op == "track"
                    else self.trace_out).read_text(encoding="utf-8")
            if op == "track":
                problems = checks.track_lines(text, self.ids)
                if self.tiles:
                    problems += checks.tiles_agree(text, self.tiles, "track")
            else:
                self.trace_bytes = len(text.encode("utf-8"))
                problems = checks.trace_agrees(text, self.texts["track"])
        elif op == "eval":
            code, text = result
            if code != 0:
                return [f"eval: exit status {code}"]
            problems = checks.eval_report(text, len(self.ids))
        elif op == "sweep":
            text, problems = self._sweep_text(result)
        else:
            text, problems = result, []
        self.texts.setdefault(op, text)
        found = checks.digest(text)
        first = self.reference.setdefault(op, found)
        if found != first:
            problems.append(f"{op}: output differs from the first run's")
        if op in self.pins and found != self.pins[op]:
            problems.append(f"{op}: output differs from the pinned digest")
        return problems

    def _sweep_text(self, result) -> tuple[str, list[str]]:
        line = self.pt.interpretation_line
        parts, problems = [], []
        for policy, steps, report in result:
            lines = "".join(line(step) + "\n" for step in steps
                            if step.interpretation is not None)
            report_json = json.dumps(report.to_dict(), sort_keys=True)
            if policy is self.pt.SignificancePolicy.ANY_PREVIOUS_SC:
                problems += checks.sweep_agrees(
                    lines, json.loads(report_json), self.texts["track"],
                    self.texts["eval"])
            if self.tiles:
                problems += checks.tiles_agree(lines, self.tiles,
                                               f"sweep {policy.value}")
            parts += [f"## {policy.value}\n", lines, report_json, "\n"]
        return "".join(parts), problems

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        return not problems

    def run_op(self, op: str, clock: Clock | None = None, tracer=None):
        """Run one operation, check it, and return (wall, factor) or
        None when it failed.  Untimed when ``clock`` is None."""
        gc.collect()
        fn = getattr(self, f"op_{op}")
        try:
            if tracer is not None:
                tracer.install()
                tracer.begin_run()
            try:
                if clock is None:
                    result, wall, factor = fn(), 0.0, 1.0
                else:
                    result, wall, factor = clock.measure(fn)
            finally:
                if tracer is not None:
                    tracer.remove()
            problems = self.outcome(op, result)
        except Exception:  # one failing operation must not stop the run
            traceback.print_exc()
            problems = [f"{op}: raised"]
        return (wall, factor) if self.record(op, problems) else None

    def prepare(self) -> float:
        """Untimed checks and warm-up; returns the tracemalloc peak (MiB)
        of one parse, track and evaluate pass.  The first repetition of
        the operations gives the reference outputs."""
        pt = self.pt
        tracemalloc.start()
        try:
            self.document = pt.parse_document(self.data)
            steps = pt.Engine().track_document(self.document)
            self.report = pt.evaluate(self.document, pt.Engine())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.previous_scs = len(steps[-1].after.previous_scs) if steps else 0
        again = pt.parse_document(pt.dumps_document(self.document))
        self.record("round trip", [] if again == self.document
                    else ["parse_document(dumps_document(d)) != d"])
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(["validate", str(self.path)])
        self.record("validate", [] if code == 0 and not buffer.getvalue()
                    else [f"validate: status {code}: {buffer.getvalue()!r}"])
        return peak / 2**20


# ---------------------------------------------------------------------------
# measuring


def measure_setup(clock: Clock) -> list[tuple[float, float]]:
    """(wall, factor) samples of the seconds from ``import povtrack`` to
    a ready ``Engine()``, each in a fresh interpreter; the first, which
    may compile, is not kept.

    The harness pins itself to one CPU while it runs the children, which
    inherit the pin, so that the calibration loop runs on the CPU that
    the children ran on."""
    command = [sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC))]

    def child():
        return subprocess.run(command, check=True, capture_output=True,
                              text=True, timeout=60)

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        clock.measure(child)  # also re-times the loop on the pinned CPU
        samples = []
        for _ in range(SETUP_RUNS):
            proc, _, factor = clock.measure(child)
            samples.append((float(proc.stdout), factor))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def another_fits(seconds: float, began: float, per_rep: list[float],
                at_least: int) -> bool:
    """Whether another repetition fits in the measuring window."""
    if len(per_rep) < at_least:
        return True
    elapsed = time.perf_counter() - began
    return elapsed + statistics.median(per_rep) <= seconds


def untraced(bench: Bench, clock: Clock, rep: int,
             samples: dict[str, list[tuple[float, float]]]) -> None:
    """One untraced repetition; appends (wall, factor) per operation."""
    for k in range(len(OPS)):
        op = OPS[(rep + k) % len(OPS)]
        timing = bench.run_op(op, clock)
        if timing is not None:
            samples[op].append(timing)


def calibrated(samples: list[tuple[float, float]]) -> float:
    return statistics.median(wall * factor for wall, factor in samples)


def run_end_to_end(bench: Bench, seconds: float, peak_mib: float,
                   clock: Clock) -> dict[str, tuple[float, str, int]]:
    samples = {"setup": measure_setup(clock)}
    samples.update((op, []) for op in OPS)
    began, per_rep = time.perf_counter(), []
    while another_fits(seconds, began, per_rep, at_least=1):
        start = time.perf_counter()
        untraced(bench, clock, len(per_rep), samples)
        per_rep.append(time.perf_counter() - start)
    print("raw wall seconds and calibration factors (medians); each "
          "metric is the median of wall x factor")
    metrics = {}
    for op, values in samples.items():
        if values:
            metrics[f"{op}_s"] = (calibrated(values), "s", len(values))
            print(f"  {op + '_s':<10} wall "
                  f"{statistics.median(w for w, _ in values):.6f} s, "
                  f"factor {statistics.median(f for _, f in values):.4f}")
    metrics["peak_mib"] = (peak_mib, "MiB", 1)
    return metrics


def run_traced(bench: Bench, seconds: float, clock: Clock
               ) -> dict[str, tuple[float, str, int]]:
    tracer = Tracer()
    plain: dict[str, list[tuple[float, float]]] = {op: [] for op in OPS}
    reps: list[dict] = []
    began, per_rep = time.perf_counter(), []
    while another_fits(seconds, began, per_rep, at_least=2):
        start = time.perf_counter()
        rep = len(per_rep)
        untraced(bench, clock, rep, plain)
        tracer.clear()
        order = [OPS[(rep + k) % len(OPS)] for k in range(len(OPS))]
        timings = {op: bench.run_op(op, clock, tracer) for op in order}
        counts = count_calls(tracer, bench.pt, bench.document)
        if all(timings.values()):
            reps.append(_traced_rep(tracer, order, timings))
            reps[-1]["counts"] = counts
        per_rep.append(time.perf_counter() - start)
    if not reps:
        return {}
    tracer.write(WORK / f"spans-{bench.workload}.tsv",
                 order + ["count-track", "count-eval"])
    reference = bench.pt.load_document(FIXTURES / "minicorpus.json")
    sentences = len(reference.sentences())
    print("minicorpus calls per sentence: " + ", ".join(
        f"{name} {count / sentences:.2f}" for name, count
        in count_calls(Tracer(), bench.pt, reference).items()
        if name.endswith("_per_sentence")))

    counts = [rep["counts"] for rep in reps]
    if any(c != counts[0] for c in counts):
        bench.record("counters", ["call counts differ between repetitions"])
    n = len(bench.ids)
    metrics = {
        "corpus.sentences": (n, "count", 1),
        "corpus.clauses": (bench.clauses, "count", 1),
        "corpus.bytes_in": (len(bench.data), "bytes", 1),
        "engine.previous_scs_final": (bench.previous_scs, "count", 1),
        "evaluation.primary": (bench.report.primary_count, "count", 1),
        "evaluation.secondary": (bench.report.secondary_count, "count", 1),
        "trace.bytes_out": (bench.trace_bytes, "bytes", 1),
    }
    for name, count in counts[0].items():
        per = count / n if name.endswith("_per_sentence") else count
        metrics[name] = (per, "count", len(reps))
    for name in reps[0]["times"]:
        values = [rep["times"][name] for rep in reps]
        unit = "us" if name.endswith("_us") else (
            "ratio" if name == "trace_overhead" else "s")
        metrics[name] = (statistics.median(values), unit, len(values))
    untraced_total = sum(calibrated(plain[op]) for op in OPS)
    traced_total = statistics.median(
        sum(rep["wall"].values()) for rep in reps)
    metrics["trace_overhead"] = (traced_total / untraced_total, "ratio",
                                 len(reps))
    _print_split(reps, plain)
    return metrics


def count_calls(tracer: Tracer, pt, document) -> dict[str, int]:
    """The ``COUNTED`` calls of one traced track_document and evaluate."""
    tracer.install()
    try:
        run = {"track": tracer.begin_run()}
        pt.Engine().track_document(document)
        run["eval"] = tracer.begin_run()
        pt.evaluate(document, pt.Engine())
    finally:
        tracer.remove()
    return {metric: tracer.calls(run[op], target)
            for metric, (op, target) in COUNTED.items()}


def _traced_rep(tracer: Tracer, order: list[str], timings: dict) -> dict:
    """Per-layer values of one traced repetition, in calibrated time."""
    run = {op: i for i, op in enumerate(order)}
    factor = {op: timings[op][1] for op in order}

    def total(*names) -> float:
        return sum(tracer.total(run[op], name) * factor[op]
                   for op in order for name in names)

    times = {
        "corpus.decode_s": total("corpus.json.loads"),
        "corpus.build_s": total("corpus.document_from_dict"),
        "corpus.dumps_s": total("corpus.dumps_document"),
        "engine.track_s": total("engine.Engine.track_document"),
        "engine.interpret_s": total("engine.Engine.interpret"),
        "engine.advance_history_s": total("engine.Engine.advance_history"),
        "engine.history_s": total(
            "engine.SubjectiveHistory.note_subjective",
            "engine.SubjectiveHistory.note_nonsubjective"),
        "situations.transition_s": total(
            "situations.new_context", "situations.new_context_after_break"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.classify_s": total("evaluation.classify_operation"),
        "trace.render_s": total("trace.render_step", "trace.render_trace"),
    }
    interpret = sorted(
        spent * factor[order[r]] * 1e6
        for spent, r in tracer.durations("engine.Engine.interpret")
        if r < len(order))
    if interpret:
        cuts = statistics.quantiles(interpret, n=100)
        times["engine.interpret_p50_us"] = cuts[49]
        times["engine.interpret_p99_us"] = cuts[98]
    split = {op: {layer: spent * factor[op]
                  for layer, spent in tracer.layer_self(run[op]).items()}
             for op in order}
    for layer in LAYERS:
        times[f"{layer}.self_s"] = sum(split[op][layer] for op in order)
    wall = {op: timings[op][0] * factor[op] for op in order}
    return {"times": times, "split": split, "wall": wall}


def _print_split(reps: list[dict],
                 plain: dict[str, list[tuple[float, float]]]) -> None:
    """Per operation: calibrated untraced and traced time, and the traced
    time split into each layer's self time (medians over repetitions)."""
    print("per-operation split, calibrated seconds (median of "
          f"{len(reps)} traced repetitions)")
    print(f"{'op':<7}{'untraced':>10}{'traced':>9}"
          + "".join(f"{layer:>11}" for layer in LAYERS) + f"{'harness':>9}")
    for op in OPS:
        traced = statistics.median(rep["wall"][op] for rep in reps)
        cells = [statistics.median(rep["split"][op][layer] for rep in reps)
                 for layer in LAYERS]
        harness = statistics.median(
            rep["wall"][op] - sum(rep["split"][op].values()) for rep in reps)
        print(f"{op:<7}{calibrated(plain[op]):>10.4f}{traced:>9.4f}"
              + "".join(f"{c:>11.4f}" for c in cells) + f"{harness:>9.4f}")


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "povtrack" / "__init__.py", FIXTURES)
               if not p.exists()]
    if missing or len(corpora.fixture_paths(FIXTURES)) != 12:
        print("perfbench: run from the root of a povtrack checkout "
              f"(missing: {', '.join(missing) or 'the 12 fixtures'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("POVTRACK_REGISTRY", None)

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        clock = Clock()
        bench = Bench(args.workload, args.seed, work)
        peak_mib = bench.prepare()
        # the harness's own objects (the parsed document, the reference
        # outputs) are left out of the collections the operations trigger
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = run_traced(bench, args.seconds, clock)
        else:
            metrics = run_end_to_end(bench, args.seconds, peak_mib, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(bench.ids)} "
          f"sentences, {bench.clauses} clauses, {len(bench.data)} bytes; "
          f"digests {json.dumps(bench.reference, sort_keys=True)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<46}{value:>14.6g} {unit:<6} n={n}")
    print(f"  {'failed_ops':<46}{bench.failed:>14} of {bench.attempted}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if bench.failed else 0


if __name__ == "__main__":
    sys.exit(main())
