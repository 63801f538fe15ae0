"""The meta rules: bare-print hygiene in library modules."""


class TestBarePrint:
    RULE = ["bare-print"]

    def test_flags_print_in_library_code(self, check_source):
        findings = check_source(
            """
            def helper(x):
                print(f"processing {x}")
                return x
            """,
            rules=self.RULE,
            path="src/repro/orchestration/executor.py",
        )
        assert [f.rule for f in findings] == ["bare-print"]
        assert "repro.obs.log.progress" in findings[0].message

    def test_cli_modules_are_exempt(self, check_source):
        source = """
            def render(rows):
                print(rows)
            """
        for path in (
            "src/repro/orchestration/cli.py",
            "src/repro/__main__.py",
        ):
            assert check_source(source, rules=self.RULE, path=path) == []

    def test_obs_log_is_exempt(self, check_source):
        findings = check_source(
            """
            def progress(line, stream=None):
                print(line, flush=True)
            """,
            rules=self.RULE,
            path="src/repro/obs/log.py",
        )
        assert findings == []

    def test_main_entry_point_is_exempt(self, check_source):
        findings = check_source(
            """
            def main():
                print("usage: ...")

            def library_helper():
                print("leaks")
            """,
            rules=self.RULE,
            path="src/repro/bench/api_surface.py",
        )
        assert [f.line for f in findings] == [5]

    def test_shadowed_print_method_stays_quiet(self, check_source):
        findings = check_source(
            """
            def report(table):
                table.print()
                return table
            """,
            rules=self.RULE,
            path="src/repro/orchestration/report.py",
        )
        assert findings == []
