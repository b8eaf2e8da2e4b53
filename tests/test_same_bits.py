"""Row normalisation, the mismatch report and the command-line digests of
``tools/same_bits.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
_SPEC = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bits)


def test_rows_lose_only_their_wall_time():
    rows = [{"step": 1, "wall_ms": 3.25, "mean_reward": 0.1}, {"step": 2, "loss": 1e-17}]
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    assert same_bits.normalise_rows(jsonl) == (
        '{"step": 1, "mean_reward": 0.1}\n{"step": 2, "loss": 1e-17}\n')
    slower = jsonl.replace("3.25", "97.5")
    assert same_bits.normalise_rows(slower) == same_bits.normalise_rows(jsonl)
    other = jsonl.replace("0.1", "0.10000000000000002")
    assert same_bits.normalise_rows(other) != same_bits.normalise_rows(jsonl)


def test_mismatches_name_differing_and_one_sided_digests():
    parent = {"bench desk seed0": "a" * 64, "rows": "b" * 64, "gone": "c" * 64}
    change = {"bench desk seed0": "a" * 64, "rows": "d" * 64, "new": "e" * 64}
    assert same_bits.mismatches(parent, change) == [
        f"rows: parent {'b' * 12} change {'d' * 12}", "gone: only in parent",
        "new: only in change"]
    assert same_bits.mismatches(parent, dict(parent)) == []
    lines = same_bits.table(parent, change).splitlines()
    assert [line.split()[-1] for line in lines] == ["same", "yes", "NO", "NO", "NO"]


def test_probe_digests_every_episode_a_sweep_decodes():
    from urex.envs import TaskId
    from urex.harness import generalization_sweep

    digests = []
    for seed in (0, 0, 1):
        probe = same_bits.Probe()
        record = generalization_sweep(probe, TaskId.REVERSE, lengths=(3, 5),
                                      episodes_per_length=2, seed=seed)
        assert record.rows == [(3, 2), (5, 2)] and len(probe.episodes) == 4
        assert [len(episode.actions) for episode in probe.episodes] == [6, 6, 10, 10]
        digests.append(probe.digest())
    assert digests[0] == digests[1] != digests[2]


def test_cli_digests_cover_each_file_and_trace_of_the_command_line_runs(tmp_path):
    from urex.envs import TaskId, make_env
    from urex.harness import render_trace
    from urex.policy import load_policy

    digests = same_bits.cli_digests(tmp_path)
    assert sorted(digests) == sorted([
        "cli run files", "cli run jsonl", "cli run ckpt", "cli run config files",
        "cli run config jsonl", "cli run config ckpt", "cli bandit files", "cli bandit csv",
        "cli run qlearn files", "cli run qlearn jsonl", "cli run qlearn ckpt",
        "cli generalize files", "cli generalize csv", "cli trace BinarySearch text",
        "cli trace ReversedAddition text", "cli trace run checkpoint Copy text",
        "cli trace run checkpoint Reverse text", "cli trace run qlearn checkpoint Copy text"])
    (rows,) = (tmp_path / "run").glob("*.jsonl")
    assert digests["cli run jsonl"] == same_bits.sha(same_bits.normalise_rows(rows.read_text()))
    for output in ("files", "jsonl", "ckpt"):  # the config file gives the flags' run
        assert digests[f"cli run config {output}"] == digests[f"cli run {output}"]
    for run, task, seed in [("run", "Copy", 0), ("run", "Reverse", 3), ("run qlearn", "Copy", 0)]:
        (checkpoint,) = (tmp_path / run.replace(" ", "_")).glob("*.ckpt")
        env = make_env(TaskId(task), seed)
        env.reset()
        text = render_trace(env, load_policy(checkpoint)) + "\n"
        assert digests[f"cli trace {run} checkpoint {task} text"] == same_bits.sha(text)
    assert len(set(digests.values())) == len(digests) - 3  # the config run repeats the flags'


def test_search_digests_cover_both_scripts_and_both_oracle_strategies(monkeypatch):
    from urex.envs import TaskId, make_env, oracle_rollout, oracle_script, play

    monkeypatch.setattr(same_bits, "SEARCH_EPISODES", 3)
    digests = same_bits.search_digests()
    assert sorted(digests) == ["oracle binary search episodes", "oracle linear search episodes"]
    episodes = []
    for seed in same_bits.SEARCH_SEEDS:
        env = make_env(TaskId.BINARY_SEARCH, seed)
        for _ in range(3):
            env.reset()
            episode = oracle_rollout(env, "binary")
            observations, _, results = play(env, oracle_script(env, "binary"))
            assert (episode.observations, episode.rewards) == (
                observations, [res.reward for res in results])
            episodes.append(episode)
    assert digests["oracle binary search episodes"] == same_bits.sha(repr(episodes))
    assert len(set(digests.values())) == 2


def test_golden_digests_match_the_file_for_this_build():
    golden = json.loads((_PATH.parent / "digests.json").read_text())
    build, digests = same_bits.golden_digests(_PATH.parents[1])
    if build not in golden:
        pytest.skip(f"tools/digests.json records no digests for this build: {build}")
    assert same_bits.mismatches(golden[build], digests) == []
