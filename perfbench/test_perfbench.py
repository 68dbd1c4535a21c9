"""The benchmark's own tests, at reduced length.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import trace_metrics  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short(monkeypatch):
    """One set-up, a short warm-up and a short serving oracle."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setups", 1)
    monkeypatch.setattr(run, "WARMUP_S", 0.1)
    monkeypatch.setattr(workloads, "SERVE_VERIFY_REQUESTS", 200)


def run_main(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.3", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) \
        == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == trace_metrics.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_emits_every_metric_with_its_unit(short, capsys, workload, trace):
    result, _ = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_cluster_trace_marks_replica_engine_time_not_measured(short, capsys):
    _, out = run_main(capsys, "serve_cluster", 1)
    assert "not measured" in out and "core.execute_ms" in out


def test_net_oracle_runs_and_catches_a_wrong_output():
    wl = workloads.NetInfer(seed=5)
    wl.prepare()
    state = wl.setup()
    assert wl.check_setup(state) == (1, 0)
    phase = wl.run(state, 0.05)
    assert phase.outputs
    idx, out = phase.outputs[0]
    phase.outputs[0] = (idx, out * (1 + 1e-6))
    assert wl.check_run(state, phase) == (0, 1)


def test_train_oracle_runs_and_catches_a_wrong_gradient():
    wl = workloads.TrainStep(seed=5)
    wl.prepare()
    state = wl.setup()
    assert wl.check_setup(state) == (1, 0)
    state["first_grads"][2][0, 0, 0, 0] += 1e-3
    assert wl.check_setup(state) == (1, 1)


def doctor(server, every: int):
    """Make ``server.submit`` corrupt one served result in *every*."""
    submit = server.submit
    calls = [0]

    def doctored(*args, **kwargs):
        served = submit(*args, **kwargs)
        calls[0] += 1
        if calls[0] % every:
            return served
        wrong = Future()
        served.add_done_callback(
            lambda f: wrong.set_result(f.result() + 1e-12))
        return wrong

    server.submit = doctored


@pytest.mark.parametrize("cls", [workloads.ServeInproc,
                                 workloads.ServeCluster])
def test_serving_oracle_counts_a_doctored_result_as_failed(monkeypatch, cls):
    monkeypatch.setattr(workloads, "SERVE_VERIFY_REQUESTS", 100)
    wl = cls(seed=5)
    wl.prepare()
    state = wl.setup()
    try:
        assert wl.check_setup(state) == (4, 0)
        assert wl.check_run(state, None) == (100, 0)
        doctor(state["server"], every=10)
        assert wl.check_run(state, None) == (100, 10)
    finally:
        wl.teardown(state)


def test_doctored_run_does_not_pass(short, capsys, monkeypatch):
    make_server = workloads.ServeInproc.make_server

    def doctored_server(self):
        server = make_server(self)
        doctor(server, every=7)
        return server

    monkeypatch.setattr(workloads.ServeInproc, "make_server",
                        doctored_server)
    result, _ = run_main(capsys, "serve_inproc", 0)
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "net_infer", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    a, b, c = (workloads.ServeInproc(seed) for seed in (1, 1, 2))
    assert np.array_equal(a.pool[3][5], b.pool[3][5])
    assert not np.array_equal(a.pool[3][5], c.pool[3][5])
    assert next(a._requests()) == next(b._requests())


def test_serving_p99_discounts_one_stall_but_not_a_recurring_tail():
    stall = np.ones(5000)
    stall[:60] = 100.0  # one burst, inside the first block
    assert workloads.tail_ms(stall, 99, None) == 100.0
    assert workloads.tail_ms(stall, 99, 1000) == 1.0
    recurring = np.ones(5000)
    recurring[::50] = 100.0  # 2% of every block
    assert workloads.tail_ms(recurring, 99, 1000) == 100.0
