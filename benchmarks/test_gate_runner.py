"""The extension gate runner: its registry, its verdicts, and that every gate
catches the failures its module's old ``main()`` exit code let through."""

from __future__ import annotations

import ast
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

import gate as runner

BENCH_DIR = Path(__file__).resolve().parent


def _bench_modules():
    """``name -> parsed source`` of every ``benchmarks/bench_<name>.py``."""
    return {path.stem[len("bench_"):]: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(BENCH_DIR.glob("bench_*.py"))}


def _top_level_functions(tree: ast.Module) -> set:
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _imported_modules(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_registry_is_every_bench_module_with_run_and_gate():
    exposing = {name for name, tree in _bench_modules().items()
                if {"run", "gate"} <= _top_level_functions(tree)}
    assert exposing == set(runner.GATES)


def test_no_bench_module_has_its_own_entry_point():
    for name, tree in _bench_modules().items():
        assert "main" not in _top_level_functions(tree), name
        assert "argparse" not in _imported_modules(tree), name


def _fake_gate(monkeypatch, name, run):
    module = types.SimpleNamespace(
        run=run, gate=lambda result: [] if result["ok"] else ["ok"])
    monkeypatch.setitem(sys.modules, f"bench_{name}", module)


def test_runner_runs_every_gate_and_exits_1_if_any_failed(monkeypatch, tmp_path, capsys):
    def boom(quick, out):
        raise RuntimeError("lost a peer")

    _fake_gate(monkeypatch, "boom", boom)
    _fake_gate(monkeypatch, "bad", lambda quick, out: {"ok": False})
    _fake_gate(monkeypatch, "good", lambda quick, out: {"ok": quick})
    monkeypatch.setattr(runner, "GATES", ("boom", "bad", "good"))

    assert runner.main(["--quick", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["FAIL", "boom"], ["FAIL", "bad"], ["PASS", "good"]]
    assert lines[0].endswith("raised RuntimeError: lost a peer")
    written = {name: json.loads((tmp_path / f"{name}.json").read_text())
               for name in runner.GATES}
    assert written["boom"]["result"] is None
    assert written["bad"]["failures"] == ["ok"]
    assert written["good"] == {"gate": "good", "quick": True, "failures": [],
                               "result": {"ok": True},
                               "seconds": written["good"]["seconds"]}
    assert runner.main(["good", "--quick", "--out", str(tmp_path)]) == 0


def test_runner_rejects_an_unknown_gate(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["no_such_gate", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


#: (gate, path to one field of its quick result, the flipped value, the
#: condition that must then fail).  Each field is one the module's old
#: ``main()`` never looked at: it exited 0 with it flipped.
DRIFTED = [
    ("parallel_cascade", ("delta_fallbacks",), 1, "delta_fallbacks == 0"),
    ("sharded_consensus", ("fold", "rounds_cut"), 0, "fold rounds_cut >= 2 x rounds"),
    ("chaos_soak", ("convergence", "messages_lost"), 1, "messages_lost == 0"),
    ("durability", ("policies", "never", "entries_replayed"), 0, "never replays from empty"),
    ("delta_propagation", ("grid", 0, "delta_puts"), 0, "delta puts > 0 at every size"),
    ("gateway_throughput", ("cache_hit_rate",), 0.0, "cache_hit_rate > 0.3"),
]


@pytest.mark.slow
@pytest.mark.parametrize("name, path, value, condition", DRIFTED,
                         ids=[case[0] for case in DRIFTED])
def test_flipped_field_fails_its_gate(name, path, value, condition,
                                      monkeypatch, tmp_path, capsys):
    module = importlib.import_module(f"bench_{name}")
    result = module.run(True, tmp_path)
    # Timing conditions may wobble on a loaded machine; this one must not.
    assert condition not in module.gate(result)

    target = result
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert condition in module.gate(result)

    monkeypatch.setattr(module, "run", lambda quick, out: result)
    assert runner.main([name, "--quick", "--out", str(tmp_path)]) == 1
    assert condition in capsys.readouterr().out
    written = json.loads((tmp_path / f"{name}.json").read_text())
    assert condition in written["failures"]
