"""Suppression grammar: line/file noqa, the ``unknown-suppression``
hygiene rule, and parse-error reporting."""

from __future__ import annotations


class TestLineSuppression:
    def test_noqa_silences_the_named_rule_on_its_line(self, check_source):
        findings = check_source(
            """
            import time

            stamp = time.time()  # repro: noqa[wall-clock]
            other = time.time()
            """,
            rules=["wall-clock"],
        )
        assert [f.line for f in findings] == [4]

    def test_noqa_lists_multiple_rules(self, check_source):
        findings = check_source(
            """
            import json
            import time

            blob = json.dumps(time.time())  # repro: noqa[wall-clock,json-sort-keys]
            """,
            rules=["wall-clock", "json-sort-keys"],
        )
        assert findings == []

    def test_noqa_inside_string_is_inert(self, check_source):
        # Only comment tokens suppress; the directive quoted in a string
        # literal on the finding's own line is plain text.
        findings = check_source(
            """
            import time

            stamp = (time.time(), "# repro: noqa[wall-clock]")
            """,
            rules=["wall-clock"],
        )
        assert [f.line for f in findings] == [3]

    def test_noqa_for_a_different_rule_does_not_silence(self, check_source):
        findings = check_source(
            """
            import time

            stamp = time.time()  # repro: noqa[json-sort-keys]
            """,
            rules=["wall-clock"],
        )
        assert len(findings) == 1


class TestFileSuppression:
    def test_noqa_file_silences_everywhere(self, check_source):
        findings = check_source(
            """
            # repro: noqa-file[wall-clock]
            import time

            a = time.time()
            b = time.time()
            """,
            rules=["wall-clock"],
        )
        assert findings == []

    def test_docstring_mention_is_not_a_suppression(self, check_source):
        # Only real comment tokens parse; a docstring quoting the
        # grammar (like this module's own documentation does) is inert.
        findings = check_source(
            '''
            """Docs: write `# repro: noqa-file[wall-clock]` to opt out."""

            import time

            stamp = time.time()
            ''',
            rules=["wall-clock"],
        )
        assert len(findings) == 1


class TestUnknownSuppression:
    def test_flags_typo(self, check_source):
        findings = check_source(
            """
            import time

            stamp = time.time()  # repro: noqa[wall-clok]
            """,
            rules=["unknown-suppression"],
        )
        assert [f.rule for f in findings] == ["unknown-suppression"]
        assert "wall-clok" in findings[0].message

    def test_registered_ids_are_clean(self, check_source):
        findings = check_source(
            """
            # repro: noqa-file[salted-hash]
            value = 1  # repro: noqa[wall-clock]
            """,
            rules=["unknown-suppression"],
        )
        assert findings == []


class TestParseError:
    def test_broken_file_reports_one_error_finding(self, check_source):
        findings = check_source(
            """
            def broken(:
            """,
        )
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].severity == "error"


class TestGrammarVariants:
    def test_noqa_without_spaces(self, check_source):
        findings = check_source(
            """
            import time

            stamp = time.time()  #repro:noqa[wall-clock]
            """,
            rules=["wall-clock"],
        )
        assert findings == []

    def test_noqa_covers_only_its_own_physical_line(self, check_source):
        findings = check_source(
            """
            import time

            stamp = max(  # repro: noqa[wall-clock]
                time.time(),
                0.0,
            )
            """,
            rules=["wall-clock"],
        )
        # the finding reports the call's own line, not the statement's
        assert [f.line for f in findings] == [4]

    def test_unknown_suppression_flags_file_level_typo(self, check_source):
        findings = check_source(
            """
            # repro: noqa-file[salted-hsh]
            value = 1
            """,
            rules=["unknown-suppression"],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("unknown-suppression", 1),
        ]
