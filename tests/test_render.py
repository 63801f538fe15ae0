"""The text writers every ``repro`` command prints through.

The command fixtures (``tests/orchestration/cli_stdout``) pin the
writers' output on real runs; these tests pin the edges those runs do
not reach: a value wider than its column, an unpadded column, the rule
line, and CSV floats that must read back exactly.
"""

import json

from repro.render import Column, csv_text, json_text, table


def test_table_pads_titles_and_cells_alike_and_never_truncates():
    columns = (Column("name", "<6"), Column("value", ">8", ".2f"), Column(" note"))
    rows = [("a", 1.5, " x"), ("much-too-long", 12345.678, " ")]
    text = table(columns, rows, sep=" ")
    assert text.split("\n") == [
        "name      value  note",
        "a          1.50  x",
        "much-too-long 12345.68  ",
    ]


def test_rule_spans_the_header_and_empty_tables_keep_it():
    text = table((Column("a", "<3"), Column("b", ">4")), [], sep=" ", rule=True)
    assert text == "a      b\n--------"


def test_csv_writes_floats_with_repr_and_the_rest_with_str():
    value = 0.1 + 0.2
    text = csv_text(("k", "n", "v"), [("G2-1", 3, value), ("AVG", True, 1e-9)])
    assert text == f"k,n,v\nG2-1,3,{value!r}\nAVG,True,1e-09"
    assert float(text.split("\n")[1].split(",")[2]) == value


def test_json_is_indented_sorted_and_newline_terminated():
    document = {"b": [1], "a": {"d": 0.5, "c": None}}
    text = json_text(document)
    assert text.endswith("}\n") and json.loads(text) == document
    assert text == json.dumps({"a": {"c": None, "d": 0.5}, "b": [1]}, indent=2) + "\n"
