"""tools/ab_pairs.py times every pair, lists each command whose outputs
differ, and exits 1 if any did."""

import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "ab_pairs.py")


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", _TOOL)
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    return ab_pairs


def _listed(out):
    return [line for line in out.splitlines() if line.startswith("ab_pairs: outputs differ on command")]


def test_one_tree_against_itself_times_every_pair_and_exits_0(capsys):
    assert _ab_pairs().main([_ROOT, _ROOT, "--workload", "gradcheck-small", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "18 commands x 1 rounds = 18 pairs, outputs identical" in out
    assert _listed(out) == []


def test_differing_outputs_are_listed_once_per_command_timed_and_exit_1(capsys, monkeypatch):
    ab_pairs = _ab_pairs()
    real_run = ab_pairs.run

    def run(cli, argv, out_dir):
        dt, got = real_run(cli, argv, out_dir)
        if cli.__name__.startswith("fpgrad_change") and "rbp" in argv:
            got["stdout"] += "moved\n"
        return dt, got

    monkeypatch.setattr(ab_pairs, "run", run)
    assert ab_pairs.main([_ROOT, _ROOT, "--workload", "gradcheck-small", "--rounds", "2"]) == 1
    out = capsys.readouterr().out
    listed = _listed(out)
    assert len(listed) == 9
    assert all("--method rbp" in line and "stdout:" in line for line in listed)
    assert "18 commands x 2 rounds = 36 pairs, outputs differ on 9 commands" in out
    assert "change faster in" in out
