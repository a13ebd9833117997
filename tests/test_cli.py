import json
import re
import shutil

import pytest

from scenetg import benchmark_path
from scenetg.cli import EXIT_OK, EXIT_RUNTIME, EXIT_TIMEOUT, EXIT_USAGE, main
from scenetg.diff import RunSnapshot, diff_graphs
from scenetg.errors import CorruptRun, ParseError, SchemaError
from scenetg.simulator import load_app_model
from test_layout import _written_chain


def bench(name):
    return str(benchmark_path(name))


def explore_to(tmp_path, name, *extra):
    out = tmp_path / "out"
    code = main(["explore", "--app", bench(name), "--out", str(out), *extra])
    return code, out


class TestExplore:
    def test_writes_artifacts_and_prints_stats(self, tmp_path, capsys):
        code, out = explore_to(tmp_path, "app10.json")
        assert code == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"explored_activities": 1, "scenes": 9, "transition_pairs": 6}
        assert (out / "scenetg.json").is_file()
        assert (out / "trace.log").is_file()

    def test_missing_model_file_is_usage_error(self, tmp_path):
        code, _ = explore_to(tmp_path, "no_such_model.json")
        assert code == EXIT_USAGE

    def test_invalid_model_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"package": "p", "activities": []}')
        code = main(["explore", "--app", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_timeout_returns_exit_3(self, tmp_path, capsys):
        code, out = explore_to(tmp_path, "palette.json", "--no-scene-id", "--max-actions", "300")
        assert code == EXIT_TIMEOUT
        assert json.loads((out / "report.json").read_text())["partial"]
        assert json.loads((out / "report.json").read_text())["stop_reason"] == "actions"

    def test_seed_env_var_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCENETG_SEED", "17")
        code, out = explore_to(tmp_path, "app10.json")
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["seed"] == 17

    def test_seed_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCENETG_SEED", "17")
        code, out = explore_to(tmp_path, "app10.json", "--seed", "3")
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("timeout", ["0", "-5", "nan"])
    def test_non_positive_timeout_is_usage_error(self, tmp_path, capsys, timeout):
        code, out = explore_to(tmp_path, "app10.json", "--dynamic-timeout", timeout)
        assert code == EXIT_USAGE
        assert "dynamic_timeout" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-5", "2.5", "ten"])
    def test_bad_action_budget_is_usage_error(self, tmp_path, capsys, budget):
        code, out = explore_to(tmp_path, "app10.json", "--max-actions", budget)
        assert code == EXIT_USAGE
        assert re.search(r"max.actions", capsys.readouterr().err)
        assert not out.exists()

    def test_non_integer_seed_env_var_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCENETG_SEED", "abc")
        code, out = explore_to(tmp_path, "app10.json")
        assert code == EXIT_USAGE
        assert "SCENETG_SEED" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_flags_recorded_in_report(self, tmp_path):
        code, out = explore_to(tmp_path, "guarded.json", "--no-fuzzing")
        assert code == EXIT_OK
        config = json.loads((out / "report.json").read_text())["config"]
        assert not config["enable_fuzzing"] and config["enable_indirect"]


class TestOtherVerbs:
    @pytest.fixture
    def explored(self, tmp_path):
        _, out = explore_to(tmp_path, "app10.json")
        return out

    def test_stats(self, explored, capsys):
        capsys.readouterr()
        assert main(["stats", "--in", str(explored)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scenes"] == 9

    def test_stats_missing_dir(self, tmp_path):
        assert main(["stats", "--in", str(tmp_path / "nope")]) == EXIT_USAGE

    def test_export_json_and_dot(self, explored, capsys):
        capsys.readouterr()
        assert main(["export", "--in", str(explored), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["scenes"] == 9
        assert main(["export", "--in", str(explored), "--format", "dot"]) == EXIT_OK
        dot = capsys.readouterr().out
        assert dot.startswith("digraph scenetg {")
        assert dot == (explored / "scenetg.dot").read_text(encoding="utf-8")

    def test_export_dot_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        model = {
            "package": "com.x",
            "activities": [
                {
                    "name": 'Main"Act',
                    "scenes": [
                        {
                            "name": "entry",
                            "widgets": [{"id": 'go"\\', "class": "android.widget.Button", "clickable": True}],
                            "transitions": [{"widget": 'go"\\', "target": "scene:done"}],
                        },
                        {"name": "done", "widgets": [{"id": "lbl", "class": "android.widget.TextView"}]},
                    ],
                }
            ],
        }
        app = tmp_path / "quoted.json"
        app.write_text(json.dumps(model))
        out = tmp_path / "out"
        assert main(["explore", "--app", str(app), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["export", "--in", str(out), "--format", "dot"]) == EXIT_OK
        dot = capsys.readouterr().out
        assert dot == (out / "scenetg.dot").read_text(encoding="utf-8")
        string = r'"((?:[^"\\]|\\.)*)"'  # a DOT quoted string; group 1 is its escaped inside
        node = re.compile(rf"  {string} \[label={string}\];")
        edge = re.compile(rf"  {string} -> {string} \[label={string}\];")
        lines = dot.splitlines()
        assert lines[0] == "digraph scenetg {" and lines[-1] == "}"
        labels = []
        for line in lines[1:-1]:
            match = node.fullmatch(line) or edge.fullmatch(line)
            assert match, line
            labels.append(re.sub(r'\\([\\"])', r"\1", match.group(match.lastindex)))  # \n stays a DOT line break
        assert sum(label.endswith('\\nMain"Act') for label in labels) == 2
        assert 'TAP/com.x:id/go"\\' in labels

    def test_export_corrupt_graph_is_runtime_error(self, explored, tmp_path, capsys):
        good = json.loads((explored / "scenetg.json").read_text())
        dangling = dict(good, scene_edges=[{"src": "x", "dst": "y", "event": "TAP", "component": "c"}])
        corruptions = {
            "invalid-json": "{nope",
            "no-stats": json.dumps({k: v for k, v in good.items() if k != "stats"}),
            "no-scenes": json.dumps({k: v for k, v in good.items() if k != "scenes"}),
            "scene-without-layout": json.dumps(dict(good, scenes=[{"id": "x", "activity": "A"}])),
            "dangling-edge": json.dumps(dangling),
            "lone-surrogate": json.dumps(dict(good, scenes=[dict(s, activity="A\ud800") for s in good["scenes"]])),
        }
        for name, text in corruptions.items():
            out = tmp_path / name
            shutil.copytree(explored, out)
            (out / "scenetg.json").write_text(text)
            for argv in (
                ["stats", "--in", str(out)],
                ["export", "--in", str(out), "--format", "dot"],
                ["export", "--in", str(out), "--format", "json"],
                ["diff", "--old", str(out), "--new", str(explored), "--out", str(tmp_path / "d.json")],
                ["diff", "--old", str(explored), "--new", str(out), "--out", str(tmp_path / "d.json")],
            ):
                assert main(argv) == EXIT_RUNTIME, (name, argv[0])
                assert "scenetg.json" in capsys.readouterr().err
        (out / "scenetg.json").write_text(json.dumps(dangling))
        assert main(["export", "--in", str(out), "--format", "dot"]) == EXIT_RUNTIME
        assert "x -> y" in capsys.readouterr().err

    def test_diff_verb(self, tmp_path, capsys):
        _, old = explore_to(tmp_path / "a", "nested_menu_v1.json")
        _, new = explore_to(tmp_path / "b", "nested_menu_v2.json")
        report_path = tmp_path / "diff.json"
        capsys.readouterr()
        assert main(["diff", "--old", str(old), "--new", str(new), "--out", str(report_path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "+scene" in text and "+pair" in text
        doc = json.loads(report_path.read_text())
        assert doc["summary"]["added_scenes"] == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: re.sub(r'bounds="[^"]*"', 'bounds="[10,0][0,5]"', text, count=1).encode(),
            lambda text: re.sub(r'index="[^"]*"', 'index="x"', text, count=1).encode(),
            lambda text: b"\xff\xfe" + text.encode(),
            lambda text: b"<hierarchy><node class='c'",
            lambda text: re.sub(r' class="[^"]*"', "", text, count=1).encode(),
        ],
        ids=["degenerate-bounds", "non-integer-index", "not-utf8", "malformed-xml", "missing-class"],
    )
    def test_diff_bad_layout_is_runtime_error_naming_file(self, explored, tmp_path, capsys, corrupt):
        bad = tmp_path / "bad"
        shutil.copytree(explored, bad)
        layout = sorted((bad / "layouts").glob("*.xml"))[0]
        layout.write_bytes(corrupt(layout.read_text(encoding="utf-8")))
        capsys.readouterr()
        code = main(["diff", "--old", str(explored), "--new", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        assert str(layout) in capsys.readouterr().err

    def test_diff_deeply_nested_layout_is_parse_error_naming_file(self, explored, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(explored, bad)
        layout = sorted((bad / "layouts").glob("*.xml"))[0]
        depth = 1200
        layout.write_text("<hierarchy>" + '<node class="c" package="p">' * depth + "</node>" * depth + "</hierarchy>")
        capsys.readouterr()
        code = main(["diff", "--old", str(explored), "--new", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        assert str(layout) in capsys.readouterr().err
        with pytest.raises(ParseError, match="nested too deeply"):
            diff_graphs(RunSnapshot.load(explored), RunSnapshot.load(bad))

    def test_diff_deeply_nested_written_layout_is_parse_error_naming_file(self, explored, tmp_path, capsys):
        # In the writer's own form, so the fast path sees it first and hands it on.
        bad = tmp_path / "bad"
        shutil.copytree(explored, bad)
        layout = sorted((bad / "layouts").glob("*.xml"))[0]
        layout.write_text(_written_chain(1200), encoding="utf-8")
        capsys.readouterr()
        code = main(["diff", "--old", str(explored), "--new", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        assert f"{layout}: hierarchy nested too deeply to parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ref",
        [
            lambda old, name: f"../v2/layouts/{name}",
            lambda old, name: f"layouts/../../v2/layouts/{name}",
            lambda old, name: str(old.parent / "v2" / "layouts" / name),
            lambda old, name: f"layouts/v2/{name}",
            lambda old, name: "layouts/..",
            lambda old, name: f"layouts/..\\..\\v2\\layouts\\{name}",
        ],
        ids=["parent", "dotdot-inside", "absolute", "nested", "dotdot", "backslash"],
    )
    def test_diff_layout_ref_outside_layouts_is_corrupt_run(self, tmp_path, capsys, ref):
        # The first four name a file that exists and holds the other version's layout.
        _, old = explore_to(tmp_path / "a", "nested_menu_v1.json")
        _, new = explore_to(tmp_path / "b", "nested_menu_v2.json")
        name = sorted(p.name for p in (new / "layouts").glob("*.xml"))[0]
        shutil.copytree(new / "layouts", old / "layouts" / "v2")
        shutil.copytree(new, old.parent / "v2")
        doc = json.loads((old / "scenetg.json").read_text())
        doc["scenes"][0]["layout_ref"] = ref(old, name)
        (old / "scenetg.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["diff", "--old", str(old), "--new", str(new), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        message = f"{old / 'scenetg.json'}: scenes[0].layout_ref: must name a file under layouts/"
        assert message in capsys.readouterr().err
        with pytest.raises(CorruptRun, match=re.escape(message)):
            RunSnapshot.load(old)

    def test_diff_deeply_nested_paths_json_is_corrupt_run(self, explored, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(explored, bad)
        (bad / "paths.json").write_text("[" * 100_000 + "]" * 100_000)
        capsys.readouterr()
        code = main(["diff", "--old", str(explored), "--new", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        assert "paths.json" in capsys.readouterr().err
        with pytest.raises(CorruptRun, match="nested too deeply"):
            RunSnapshot.load(bad)

    def test_diff_malformed_paths_json_is_corrupt_run(self, explored, tmp_path, capsys):
        paths = json.loads((explored / "paths.json").read_text())
        sid = next(sid for sid, steps in paths.items() if steps)
        # A string value, a one-element step, a non-string component.
        cases = [("xy", sid), ([["TAP"]], f"{sid}[0]"), ([["TAP", 5]], f"{sid}[0]")]
        for k, (value, where) in enumerate(cases):
            bad = tmp_path / f"bad{k}"
            shutil.copytree(explored, bad)
            (bad / "paths.json").write_text(json.dumps({**paths, sid: value}))
            capsys.readouterr()
            code = main(["diff", "--old", str(explored), "--new", str(bad), "--out", str(tmp_path / "d.json")])
            assert code == EXIT_RUNTIME
            assert f"{bad / 'paths.json'}: {where}: expected" in capsys.readouterr().err
            with pytest.raises(CorruptRun, match=re.escape(f"paths.json: {where}: expected")):
                RunSnapshot.load(bad)

    def test_diff_rejects_non_run_directory(self, tmp_path):
        code = main(["diff", "--old", str(tmp_path), "--new", str(tmp_path), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_USAGE

    def test_validate_model(self, tmp_path, capsys):
        assert main(["validate-model", "--app", bench("app01.json")]) == EXIT_OK
        assert "ok: com.bench.app01" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate-model", "--app", str(bad)]) == EXIT_USAGE

    def test_validate_deeply_nested_model_is_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"package": "p", "activities": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["validate-model", "--app", str(bad)]) == EXIT_USAGE
        assert "nested too deeply" in capsys.readouterr().err
        with pytest.raises(SchemaError, match="nested too deeply"):
            load_app_model(bad)

    @pytest.mark.parametrize("verb", ["validate-model", "explore"])
    def test_model_that_is_not_utf8_is_schema_error(self, verb, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        extra = ["--out", str(tmp_path / "out")] if verb == "explore" else []
        assert main([verb, "--app", str(bad), *extra]) == EXIT_USAGE
        assert "model: not UTF-8 text" in capsys.readouterr().err
        with pytest.raises(SchemaError, match="^model: not UTF-8 text: "):
            load_app_model(bad)

    def test_validate_model_names_unknown_field(self, tmp_path, capsys):
        doc = json.loads(benchmark_path("app01.json").read_text())
        doc["activities"][0]["scenes"][0]["widgets"][0]["clikable"] = True
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate-model", "--app", str(bad)]) == EXIT_USAGE
        assert "model.activities[0].scenes[0].widgets[0].clikable: unknown field" in capsys.readouterr().err

    def test_validate_model_rejects_duplicate_extra_key(self, tmp_path, capsys):
        # The launch reads one value per key, so the model could never be launched directly.
        doc = json.loads(benchmark_path("app01.json").read_text())
        doc["activities"][1]["required_extras"] = [["k", "STRING"], ["k", "NUMBER"]]
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate-model", "--app", str(bad)]) == EXIT_USAGE
        assert "model.activities[1].required_extras[1]: duplicate extra key 'k'" in capsys.readouterr().err


class TestUsage:
    def test_unknown_verb(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["explore", "--app", "x.json"]) == EXIT_USAGE
