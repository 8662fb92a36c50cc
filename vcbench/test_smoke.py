"""Smoke test of the benchmark at toy shapes (configs/toy.cfg dims).

    python3 -m pytest -q vcbench/test_smoke.py

Every workload runs for its minimum of two rounds, traced and untraced, and
must print every metric named in BENCHMARK.json with its unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

REPO = run.REPO
BENCH = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_toy(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--dims", "toy"])
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_with_its_unit(workload, trace):
    report, result = run_toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)

    op = "train_step" if workload == "train_desk" else "convert"
    named = {"setup_s", "peak_rss_mb", "fail_ratio", "frames_per_s",
             f"{op}_ms_p50", f"{op}_ms_tail"}
    named |= {"train_recon_final"} if op == "train_step" else {"augment_utt_per_s"}
    assert set(report["metrics"]) == named
    assert report["metrics"]["fail_ratio"]["value"] == 0.0
    assert report["ops"] and report["digests"] and report["env"]["seed"] == 3


@pytest.mark.parametrize("workload", ["train_desk", "augment_melf"])
def test_counts_repeat_exactly(workload):
    names = [n for n in run.PER_LAYER if n.startswith("autodiff.tape_nodes.")]
    names += ["augment.convert.discarded_node_share"]
    first = run_toy(workload, 1)[1]["metrics"]
    second = run_toy(workload, 1)[1]["metrics"]
    assert {n: first[n] for n in names} == {n: second[n] for n in names}
    nodes = "autodiff.tape_nodes.total" if workload == "train_desk" else names[-1]
    assert first[nodes]["value"] > 0


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 41))
    assert run.tail(samples) == (30, 75.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_check_emit_catches_a_name_collision(tmp_path):
    """`a/b.melf` and `a__b.melf` share an output stem; one pair overwrites the other."""
    from checks import check_emit
    from vcaug import augment, signal
    from vcaug.config import load_config
    from vcaug.model import VcModel

    cfg = load_config(REPO / "configs" / "toy.cfg", validate_paths=False)
    model = VcModel(cfg.model_config(2))
    mel = signal.MelSpectrogram(np.random.default_rng(0).normal(size=(12, 8)))
    corpus = tmp_path / "corpus"
    (corpus / "a").mkdir(parents=True)
    signal.write_melf(corpus / "a" / "b.melf", mel)
    signal.write_melf(corpus / "a__b.melf", mel)
    out = tmp_path / "out"
    result = augment.emit_dataset(corpus, model, augment.SpeakerPool.all_of(model),
                                  cfg.augment_policy(), out, seed=0)
    shapes = {"a/b.melf": (12, 8), "a__b.melf": (12, 8)}
    assert check_emit(result, out, shapes)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "vcbench", tmp_path / "vcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "vcbench/run.py", "--workload", "train_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_readme_says_what_each_per_layer_metric_should_move():
    readme = (REPO / "vcbench" / "README.md").read_text(encoding="utf-8")
    for name in run.PER_LAYER:
        span = name.rsplit(".", 1)[0] if name.endswith((".calls", ".self_ms", ".ms_p50")) else name
        stem, _, last = span.rpartition(".")
        assert f"`{span}`" in readme or (f"{stem}.{{" in readme and last in readme), name
