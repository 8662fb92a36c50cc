"""vcaug benchmark: desk training, single-utterance convert and two-view augment.

    python3 vcbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, and scratch files go to `.vcbench_work/` there and are removed at
exit.  The last stdout line is the result:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
under `--trace 0` and the per-layer metrics under `--trace 1`.  The line
before it is the full report: the metrics under the names used in
`vcbench/README.md`, op counts per phase, digests, output problems and the
environment.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

# The run is single-threaded: a caller may still set these before starting it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ROUNDS = 2

# glibc raises its mmap threshold each time a large block is freed, so peak
# RSS would depend on the order of past allocation sizes, and so on the seed.
# A fixed threshold (glibc's initial value) keeps it a function of the work.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024


def pin_mmap_threshold() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_mean": "ms",
    "frames_per_s": "frames/s",
    "utt_per_s": "utt/s",
}

# Spans summarised per root: the timed rounds, set-up, and the backward probe.
TIMED_SPANS = (
    "signal.read_wav", "signal.compute_log_mel", "signal.read_melf", "signal.write_melf",
    "signal.spec_augment", "model.encode", "bottleneck.quantize", "adversary.logits",
    "model.embed_and_concat", "model.decode", "autodiff.backward", "training.loss",
    "training.adam_step", "training.step", "augment.convert", "augment.emit_dataset",
)
SETUP_SPANS = (
    "data.synthetic_corpus", "data.synth_utterance", "model.save_checkpoint",
    "model.load_checkpoint",
)
STAGES = ("encode", "quantize", "adversary", "decode", "loss")
PROBE_SPANS = tuple(f"autodiff.backward.{s}" for s in STAGES)


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in TIMED_SPANS + SETUP_SPANS + PROBE_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.self_ms": "ms", f"{span}.ms_p50": "ms"})
    units["training.step_residual_ms"] = "ms"
    units["model.checkpoint_bytes"] = "bytes"
    for name in STAGES + ("total",):
        units[f"autodiff.tape_nodes.{name}"] = "count"
    units["augment.convert.discarded_share"] = "ratio"
    units["augment.convert.discarded_node_share"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_desk", "augment_melf", "augment_wav_mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run rounds while another fits in this much wall time (at least 2)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dims", choices=("desk", "toy"), default="desk",
                   help="toy shapes are for the smoke test")
    return p.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile.

    With fewer than eleven samples there is none; the maximum is returned
    with percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def git_sha(repo: Path) -> str | None:
    head = repo / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = repo / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = repo / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, cfg, mmap_pinned: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "vcaug").glob("*.py")):
        src.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "malloc_mmap_threshold": MMAP_THRESHOLD_BYTES if mmap_pinned else None,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(REPO),
        "src_sha256": src.hexdigest(),
        "config": f"configs/{args.dims}.cfg",
        "config_sha256": cfg.sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def main(argv=None, t0: float | None = None) -> int:
    t0 = time.perf_counter() if t0 is None else t0
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    mmap_pinned = pin_mmap_threshold()
    if not (SRC / "vcaug").is_dir():
        print(f"vcbench: the vcaug package is not at {SRC / 'vcaug'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from vcaug.config import ConfigError, load_config
    from workloads import SIZES, WORKLOADS

    sizes = SIZES[args.dims]
    try:
        cfg = load_config(REPO / "configs" / f"{sizes.config}.cfg", validate_paths=False)
    except ConfigError as e:
        print(f"vcbench: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    work = REPO / ".vcbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    problems: list[str] = []
    try:
        wl = WORKLOADS[args.workload](args.seed, sizes, cfg, work)
        setup_times, setup_digests = [], []
        for r in range(sizes.setup_repeats):
            with tracer.recording(tracing.SETUP_ROOT) if tracer else nullcontext():
                start = time.perf_counter()
                setup_digests.append(wl.setup(work / f"setup{r}"))
                setup_times.append(time.perf_counter() - start)
        if any(d != setup_digests[0] for d in setup_digests):
            problems.append(f"set-up is not deterministic: {setup_digests}")
        wl.warmup()

        rounds = []   # (traced, Round); traced runs alternate so drift hits both alike
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or (
                (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds):
            traced = tracer is not None and len(rounds) % 2 == 1
            gc.collect()   # every round starts from the same collector state
            rounds.append((traced, wl.run_round(tracer if traced else None)))
        probe_counts, probe_problems = wl.probe(tracer) if tracer else ({}, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):   # still in use by another run
            (REPO / ".vcbench_work").rmdir()

    for _, rnd in rounds:
        problems += rnd.problems
    problems += probe_problems
    digests = [rnd.digests for _, rnd in rounds]
    if any(d != digests[0] for d in digests):
        problems.append("rounds of identical work gave different outputs")

    ops: dict[str, dict[str, int]] = {}
    for _, rnd in rounds:
        for phase, (attempted, failed) in rnd.ops.items():
            acc = ops.setdefault(phase, {"attempted": 0, "succeeded": 0, "failed": 0})
            acc["attempted"] += attempted
            acc["failed"] += failed
            acc["succeeded"] += attempted - failed
    attempted = sum(o["attempted"] for o in ops.values())
    failed = sum(o["failed"] for o in ops.values())

    plain = [rnd for traced, rnd in rounds if not traced]
    op_ms = [ms for rnd in plain for ms in rnd.op_ms]
    op_tail, tail_pct = tail(op_ms)
    setup_s = import_s + statistics.median(setup_times)
    # Medians over rounds of per-round figures: see "Measurement settings" in README.md.
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_mean": statistics.median(statistics.fmean(r.op_ms) for r in plain),
        "frames_per_s": statistics.median(r.frames / r.timed_s for r in plain),
        "utt_per_s": statistics.median(r.utts / r.main_s for r in plain),
    }
    if args.trace:
        metrics = {name: (value, PER_LAYER[name]) for name, value in per_layer(
            tracer, tracing, rounds, probe_counts, wl.checkpoint_bytes).items()}
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in e2e.items()}

    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "frames_per_s": (e2e["frames_per_s"], "frames/s"),
        f"{wl.op}_ms_p50": (statistics.median(op_ms), "ms"),
        f"{wl.op}_ms_tail": (op_tail, "ms"),
        **wl.report(e2e["utt_per_s"]),
    }
    report = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail": {"percentile": tail_pct, "samples": len(op_ms)},
        "ops": ops,
        "rounds": {"untraced": len(plain), "traced": len(rounds) - len(plain)},
        "round_op_ms_mean": [statistics.fmean(r.op_ms) for r in plain],
        "setup_s_samples": setup_times,
        "import_s": import_s,
        "digests": {**setup_digests[-1], **digests[0]},
        "problems": problems,
        "env": environment(args, cfg, mmap_pinned),
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer(tracer, tracing, rounds, probe_counts, checkpoint_bytes) -> dict[str, float]:
    spans = tracer.spans
    out = {}
    out.update(tracing.layer_metrics(spans, TIMED_SPANS, tracing.TIMED_ROOT))
    out.update(tracing.layer_metrics(spans, SETUP_SPANS, tracing.SETUP_ROOT))
    out.update(tracing.layer_metrics(spans, PROBE_SPANS, tracing.PROBE_ROOT))
    steps = tracing.stats_by_name(spans, tracing.TIMED_ROOT).get("training.step")
    out["training.step_residual_ms"] = statistics.median(steps.self_ms) if steps else 0.0
    out["model.checkpoint_bytes"] = checkpoint_bytes
    for name in STAGES + ("total",):
        out[f"autodiff.tape_nodes.{name}"] = probe_counts.get(f"autodiff.tape_nodes.{name}", 0)
    out["augment.convert.discarded_share"] = tracing.discarded_share(spans)
    out["augment.convert.discarded_node_share"] = probe_counts.get(
        "augment.convert.discarded_node_share", 0.0)
    out["trace.coverage"] = tracing.coverage(spans)
    traced = [ms for t, rnd in rounds if t for ms in rnd.op_ms]
    plain = [ms for t, rnd in rounds if not t for ms in rnd.op_ms]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return out


if __name__ == "__main__":
    sys.exit(main(t0=_T0))
