"""The ``repro check`` front end: registry surface, output formats,
``--fix`` idempotence, and the meta-test that the repository's own
tree is clean under its own analysis."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CATEGORIES,
    RULE_NAMES,
    register_rule,
    registered_rules,
    rule_info,
    unregister_rule,
)
from repro.analysis.cli import run_check
from repro.orchestration.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_at_least_nine_rules_across_all_categories(self):
        names = registered_rules()
        assert len(names) >= 9
        covered = {rule_info(name).category for name in names}
        assert covered == set(CATEGORIES)

    def test_every_rule_has_summary_and_valid_severity(self):
        for name in registered_rules():
            info = rule_info(name)
            assert info.summary
            assert info.default_severity in ("info", "warning", "error")

    def test_unknown_rule_raises_with_catalog(self):
        with pytest.raises(ValueError, match="unseeded-random"):
            rule_info("definitely-not-a-rule")

    def test_register_unregister_roundtrip(self):
        @register_rule("test-only-rule", category="meta",
                       default_severity="info")
        def check_nothing(context):
            """A rule that never fires."""
            return ()

        try:
            assert "test-only-rule" in RULE_NAMES
            with pytest.raises(ValueError, match="already registered"):
                register_rule("test-only-rule", category="meta")(
                    check_nothing
                )
        finally:
            unregister_rule("test-only-rule")
        assert "test-only-rule" not in RULE_NAMES

    def test_bad_category_and_severity_rejected(self):
        with pytest.raises(ValueError, match="category"):
            register_rule("x", category="vibes")
        with pytest.raises(ValueError, match="severity"):
            register_rule("x", category="meta", default_severity="fatal")


class TestRepositoryIsClean:
    def test_repro_check_passes_on_this_repo(self, capsys):
        """The gate CI applies: zero gating findings over src/."""
        code = run_check(["src"], root=REPO_ROOT)
        assert code == 0, capsys.readouterr().out


class TestCliWiring:
    def test_list_rules_subcommand(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "unseeded-random" in output
        assert "registered rules" in output

    def test_unknown_rule_selection_exits_2(self, capsys):
        code = main([
            "check", "--rules", "wall-clok", "--root", str(REPO_ROOT),
        ])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_check_subcommand_green_on_repo(self, capsys):
        code = main(["check", "--root", str(REPO_ROOT)])
        assert code == 0


class TestFormats:
    @pytest.fixture
    def dirty_root(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "thing.py").write_text(
            "import time\n\n\nSTAMP = time.time()\n"
        )
        return tmp_path

    def test_json_document(self, dirty_root, capsys):
        code = run_check(
            ["src"], root=dirty_root, output_format="json",
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["counts"]["gating"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "wall-clock"
        # the whole schema-2 shape: no fingerprints, no baseline keys
        assert (
            document["schema"], set(document), set(document["counts"]),
            set(finding),
        ) == (
            2, {"schema", "ok", "counts", "findings"}, {"findings", "gating"},
            {"rule", "path", "line", "severity", "message", "fixable"},
        )

    def test_github_annotations(self, dirty_root, capsys):
        code = run_check(
            ["src"], root=dirty_root, output_format="github",
        )
        assert code == 1
        output = capsys.readouterr().out
        assert output.startswith("::error file=src/repro/thing.py,line=4::")

    def test_table_summary_line(self, dirty_root, capsys):
        run_check(["src"], root=dirty_root)
        output = capsys.readouterr().out
        assert "1 finding(s) (1 gating)" in output


class TestFix:
    @pytest.fixture
    def fixable_root(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "thing.py").write_text(
            "import json\n"
            "\n"
            "\n"
            "def render(payload):\n"
            "    return json.dumps(payload)\n"
        )
        return tmp_path

    def test_fix_applies_and_turns_green(self, fixable_root, capsys):
        target = fixable_root / "src" / "repro" / "thing.py"
        assert run_check(["src"], root=fixable_root) == 1
        assert run_check(["src"], root=fixable_root, fix=True) == 0
        assert "json.dumps(payload, sort_keys=True)" in target.read_text()

    def test_fix_is_idempotent(self, fixable_root, capsys):
        run_check(["src"], root=fixable_root, fix=True)
        fixed_once = (
            fixable_root / "src" / "repro" / "thing.py"
        ).read_text()
        code = run_check(["src"], root=fixable_root, fix=True)
        assert code == 0
        fixed_twice = (
            fixable_root / "src" / "repro" / "thing.py"
        ).read_text()
        assert fixed_once == fixed_twice


class TestGate:
    """Exit 1 on any warning/error finding; a ``# repro: noqa`` where
    the finding is reported is the only exemption."""

    @staticmethod
    def _tree(root, source, name="thing.py"):
        (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
        (root / "src" / "repro" / name).write_text(source)
        return root

    def test_help_names_no_baseline_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--help"])
        assert exit_info.value.code == 0
        output = capsys.readouterr().out
        assert "--fix" in output
        assert "baseline" not in output

    def test_clean_tree_json_is_ok(self, tmp_path, capsys):
        root = self._tree(tmp_path, "VALUE = 1\n")
        assert run_check(["src"], root=root, output_format="json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {
            "schema": 2, "ok": True,
            "counts": {"findings": 0, "gating": 0}, "findings": [],
        }

    def test_clean_tree_table_summary(self, tmp_path, capsys):
        root = self._tree(tmp_path, "VALUE = 1\n")
        assert run_check(["src"], root=root) == 0
        assert "0 finding(s) (0 gating)" in capsys.readouterr().out

    def test_info_finding_is_reported_but_does_not_gate(
        self, tmp_path, capsys
    ):
        @register_rule("test-info-rule", category="meta",
                       default_severity="info")
        def check_first_line(context):
            """Fires once on every file."""
            from repro.analysis.registry import Finding

            yield Finding("test-info-rule", context.relpath, 1, "note")

        root = self._tree(tmp_path, "VALUE = 1\n")
        try:
            code = run_check(["src"], root=root, rules=["test-info-rule"])
        finally:
            unregister_rule("test-info-rule")
        assert code == 0
        output = capsys.readouterr().out
        assert "info [test-info-rule] note" in output
        assert "1 finding(s) (0 gating)" in output

    def test_warning_gates_as_a_github_warning(self, tmp_path, capsys):
        root = self._tree(
            tmp_path, "import json\n\n\nBLOB = json.dumps({})\n"
        )
        assert run_check(["src"], root=root, output_format="github") == 1
        output = capsys.readouterr().out
        assert output.startswith("::warning file=src/repro/thing.py,line=4::")

    def test_line_noqa_exempts(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            "import time\n\n\nSTAMP = time.time()  # repro: noqa[wall-clock]\n",
        )
        assert run_check(["src"], root=root) == 0

    def test_file_noqa_exempts(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            "# repro: noqa-file[wall-clock]\nimport time\n\n\n"
            "STAMP = time.time()\n",
        )
        assert run_check(["src"], root=root) == 0

    def test_rule_selection_limits_the_gate(self, tmp_path, capsys):
        root = self._tree(tmp_path, "import time\n\n\nSTAMP = time.time()\n")
        assert run_check(["src"], root=root, rules=["json-sort-keys"]) == 0
        assert run_check(["src"], root=root, rules=["wall-clock"]) == 1

    def test_parse_error_gates(self, tmp_path, capsys):
        root = self._tree(tmp_path, "def broken(:\n")
        assert run_check(["src"], root=root) == 1
        assert "[parse-error]" in capsys.readouterr().out

    def test_fix_leaves_unfixable_findings_gating(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            "import json\nimport time\n\n\nSTAMP = json.dumps(time.time())\n",
        )
        assert run_check(["src"], root=root, fix=True) == 1
        output = capsys.readouterr().out
        assert "fixed 1 line(s)" in output
        assert "[wall-clock]" in output
        assert "[json-sort-keys]" not in output

    def test_root_without_src_checks_the_root(self, tmp_path, capsys):
        (tmp_path / "loose.py").write_text(
            "import time\n\n\nSTAMP = time.time()\n"
        )
        assert main(["check", "--root", str(tmp_path)]) == 1
        assert "loose.py:4:" in capsys.readouterr().out

    def test_explicit_path_limits_the_scan(self, tmp_path, capsys):
        root = self._tree(tmp_path, "import time\n\n\nSTAMP = time.time()\n")
        self._tree(root, "VALUE = 1\n", name="clean.py")
        assert main([
            "check", "--root", str(root), "src/repro/clean.py",
        ]) == 0
        assert main([
            "check", "--root", str(root), "src/repro/thing.py",
        ]) == 1

    def test_rule_list_tolerates_spaces_and_empty_entries(
        self, tmp_path, capsys
    ):
        root = self._tree(tmp_path, "import time\n\n\nSTAMP = time.time()\n")
        code = main([
            "check", "--root", str(root), "--rules", " wall-clock , ,",
        ])
        assert code == 1
        assert "[wall-clock]" in capsys.readouterr().out
