"""The per-file pass underneath ``repro check``: file discovery, the
analysis context's identity fields, finding order and severities,
whole-line fixes and the per-file grouping the table format prints."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import check_paths
from repro.analysis.engine import (
    AnalysisContext,
    apply_fixes,
    discover_files,
    iter_findings_by_file,
)
from repro.analysis.registry import Finding


class TestDiscovery:
    def test_directories_expand_to_sorted_python_files(self, tmp_path):
        for name in ("b.py", "a.py", "notes.txt", "sub/c.py"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text("")
        found = discover_files([tmp_path])
        assert found == [
            tmp_path / "a.py", tmp_path / "b.py", tmp_path / "sub" / "c.py",
        ]

    def test_pycache_is_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "stale.py").write_text("")
        (tmp_path / "live.py").write_text("")
        assert discover_files([tmp_path]) == [tmp_path / "live.py"]

    def test_explicit_files_are_deduplicated_and_non_python_dropped(
        self, tmp_path
    ):
        module = tmp_path / "a.py"
        module.write_text("")
        (tmp_path / "data.json").write_text("{}")
        found = discover_files(
            [module, str(module), tmp_path, tmp_path / "data.json"]
        )
        assert found == [module]


class TestContextIdentity:
    def test_module_anchors_at_the_repro_package(self):
        context = AnalysisContext(Path("src/repro/sim/config.py"), "")
        assert context.module == "repro.sim.config"

    def test_package_init_names_the_package(self):
        context = AnalysisContext(Path("src/repro/sim/__init__.py"), "")
        assert context.module == "repro.sim"

    def test_module_outside_a_package_is_the_stem(self):
        assert AnalysisContext(Path("tool.py"), "").module == "tool"

    def test_relpath_is_relative_to_root(self, tmp_path):
        target = tmp_path / "src" / "repro" / "thing.py"
        context = AnalysisContext(target, "", root=tmp_path)
        assert context.relpath == "src/repro/thing.py"

    def test_line_text_is_empty_out_of_range(self):
        context = AnalysisContext(Path("a.py"), "x = 1\n")
        assert context.line_text(1) == "x = 1"
        assert (context.line_text(0), context.line_text(2)) == ("", "")


class TestFindings:
    def test_severity_comes_from_the_rule_default(self, check_source):
        findings = check_source(
            """
            import json
            import time

            stamp = time.time()
            blob = json.dumps({})
            """,
            rules=["wall-clock", "json-sort-keys"],
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("wall-clock", "error"), ("json-sort-keys", "warning"),
        ]

    def test_findings_are_sorted_by_line_then_rule(self, check_source):
        findings = check_source(
            """
            import json
            import time

            b = json.dumps(time.time())
            a = time.time()
            """,
            rules=["wall-clock", "json-sort-keys"],
        )
        assert [(f.line, f.rule) for f in findings] == [
            (4, "json-sort-keys"), (4, "wall-clock"), (5, "wall-clock"),
        ]

    def test_parse_error_does_not_hide_other_files(self, tmp_path):
        (tmp_path / "a_broken.py").write_text("def broken(:\n")
        (tmp_path / "b_dirty.py").write_text(
            "import time\n\n\nSTAMP = time.time()\n"
        )
        findings = check_paths([tmp_path], root=tmp_path)
        assert [(f.path, f.rule) for f in findings] == [
            ("a_broken.py", "parse-error"), ("b_dirty.py", "wall-clock"),
        ]


class TestApplyFixes:
    def test_counts_rewritten_lines_and_keeps_trailing_newline(
        self, tmp_path
    ):
        target = tmp_path / "a.py"
        target.write_text("one\ntwo\nthree\n")
        fixed = apply_fixes(
            [
                Finding("r", "a.py", 1, "m", fix=(1, "ONE")),
                Finding("r", "a.py", 3, "m", fix=(3, "THREE")),
            ],
            root=tmp_path,
        )
        assert fixed == 2
        assert target.read_text() == "ONE\ntwo\nTHREE\n"

    def test_findings_without_a_fix_leave_the_file_alone(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("one")
        assert apply_fixes([Finding("r", "a.py", 1, "m")], root=tmp_path) == 0
        assert target.read_text() == "one"

    def test_first_fix_on_a_line_wins(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("one\n")
        fixed = apply_fixes(
            [
                Finding("r", "a.py", 1, "m", fix=(1, "first")),
                Finding("s", "a.py", 1, "m", fix=(1, "second")),
            ],
            root=tmp_path,
        )
        assert fixed == 1
        assert target.read_text() == "first\n"


class TestGrouping:
    def test_groups_by_path_in_path_order(self):
        findings = [
            Finding("r", "b.py", 1, "m"),
            Finding("r", "a.py", 2, "m"),
            Finding("s", "b.py", 3, "m"),
        ]
        grouped = [
            (path, [f.line for f in group])
            for path, group in iter_findings_by_file(findings)
        ]
        assert grouped == [("a.py", [2]), ("b.py", [1, 3])]
