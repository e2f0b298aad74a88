"""The benchmark's own tests (tiny sizes, a few seconds in all).

Run from the repository root::

    python3 -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from harness import Recorder, nearest_rank  # noqa: E402
from layers import PER_LAYER, TARGETS, LayerTracer  # noqa: E402
from workloads import Sizes  # noqa: E402

TINY = Sizes(population=5, churn=1, wave_batch=2, wave_members=8,
             check_every=4, byte_ops=2)


def tiny(name, seed, tmp_path, trace=False, cycles=4):
    work = tmp_path / ("%s-%d-%d" % (name, seed, trace))
    work.mkdir()
    return run.run_workload(name, seed, 60.0, trace, str(work), sizes=TINY,
                            max_cycles=cycles)


def test_nearest_rank_and_tail_refusal():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 0.5) == (50.0, 50)
    assert nearest_rank(values, 0.9) == (90.0, 10)
    assert nearest_rank(values, 0.99) == (99.0, 1)
    out = run.Outcome(workload="x")
    rec = Recorder()
    rec.samples["deliver"] = values[:99]
    run._latency(out, rec, "deliver", True)
    assert "deliver_p50_ms" in out.metrics
    assert not any(line.startswith("deliver_tail_ms") for line in out.lines)
    assert out.problems and not out.correct


def test_a_wrong_key_fails_the_run(tmp_path, monkeypatch, capsys):
    from repro.gkm.acv import AcvBgkm

    original = AcvBgkm.derive
    calls = []

    def derive_once_wrong(self, header, css):
        key = original(self, header, css)
        calls.append(key)
        return (key + 1) % header.q if len(calls) == 1 else key

    monkeypatch.setattr(AcvBgkm, "derive", derive_once_wrong)
    code = run.main(
        ["--workload", "broadcast-steady", "--seed", "3", "--seconds", "60"],
        sizes=TINY, max_cycles=3,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_tracer_patches_callers_and_restores_originals():
    import repro.crypto.hashes as hashes
    import repro.gkm.acv as acv
    import repro.system.service as service
    import repro.wire.messages as messages

    hash_concat = hashes.hash_concat
    decode_message = messages.decode_message
    tracer = LayerTracer().install()
    try:
        assert acv.hash_concat is not hash_concat
        assert service.decode_message is not decode_message
        patched = list(tracer.patches)
        assert len(patched) >= len(TARGETS)
    finally:
        tracer.uninstall()
    assert not tracer.patches
    for owner, name, original, owned in patched:
        if owned:
            assert vars(owner)[name] is original, (owner, name)
        else:
            assert name not in vars(owner), (owner, name)
    assert acv.hash_concat is hash_concat
    assert service.decode_message is decode_message


@pytest.mark.parametrize("name", ["join-wave", "churn-rekey"])
def test_same_seed_same_bytes_and_plaintexts(tmp_path, name):
    first = tiny(name, 5, tmp_path)
    again = run.run_workload(name, 5, 60.0, False, str(tmp_path / "again"),
                             sizes=TINY, max_cycles=4)
    other = run.run_workload(name, 6, 60.0, False, str(tmp_path / "other"),
                             sizes=TINY, max_cycles=4)
    a, b = first.recorders[0], again.recorders[0]
    assert a.broadcast_sizes and a.join_sizes and a.deliveries
    assert a.broadcast_sizes == b.broadcast_sizes
    assert a.join_sizes == b.join_sizes
    assert a.deliveries == b.deliveries
    for outcome in (first, again, other):
        assert outcome.failed == 0 and outcome.attempted > 0
        assert outcome.error_rate == 0


def _layers(outcome):
    return {name: outcome.metrics[name]["value"] for name, _, _ in PER_LAYER}


def _assert_identity(values):
    self_total = sum(
        value for name, value in values.items()
        if name.endswith("_s") and name not in ("load.window_s", "load.residual_s")
    )
    assert values["load.residual_s"] >= 0
    assert self_total + values["load.residual_s"] == pytest.approx(
        values["load.window_s"], abs=1e-9
    )


def test_traced_broadcast_steady_loads_only_the_read_side(tmp_path):
    outcome = tiny("broadcast-steady", 2, tmp_path, trace=True)
    assert outcome.failed == 0
    values = _layers(outcome)
    for name in ("mathx.rref_n", "gkm.solve_n", "gkm.update_n",
                 "ocbe.compose_n", "groups.var_pow_n"):
        assert values[name] == 0, name
    assert values["gkm.cache_hit_ratio"] == 1
    assert values["gkm.derive_n"] > 0 and values["crypto.hash_n"] > 0
    _assert_identity(values)


def test_traced_churn_and_join_wave_take_their_gkm_paths(tmp_path):
    churn = _layers(tiny("churn-rekey", 2, tmp_path, trace=True))
    assert churn["gkm.cache_hit_ratio"] == 0
    assert churn["gkm.solve_n"] > 0 and churn["mathx.rref_n"] > 0
    _assert_identity(churn)
    wave = _layers(tiny("join-wave", 2, tmp_path, trace=True, cycles=6))
    assert wave["gkm.update_n"] > 0 and wave["ocbe.compose_n"] > 0
    _assert_identity(wave)


def _children():
    """Processes whose parent is this one (zombies too: not waited for)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended meanwhile
        if int(fields[1]) == os.getpid():
            children.append(int(entry))
    return children


def test_relay_tcp_runs_and_stops_its_processes(tmp_path, capsys):
    cpus = os.sched_getaffinity(0)
    code = run.main(
        ["--workload", "relay-tcp", "--seed", "1", "--seconds", "60"],
        sizes=TINY, max_cycles=6,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    # Six publishes are too few for a p90 tail, so the run itself fails;
    # every check it made must have passed.
    assert code != 0 and result["failed"] == 0 and result["attempted"] > 0
    assert "broadcast_bytes" in result["metrics"]
    # Broker and relay are gone, and this process may use every CPU again.
    assert _children() == []
    assert os.sched_getaffinity(0) == cpus


def test_manifest_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == run.manifest()
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        assert json.load(handle) == run.workload_details()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-wave",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
