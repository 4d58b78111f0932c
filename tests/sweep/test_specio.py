"""Spec file loading: YAML (through PyYAML) and JSON, format
detection and error surfaces."""

import sys

import pytest

from repro.sweep.specio import (EXAMPLE_WIRE, SpecIOError,
                                detect_format, example_spec,
                                example_text, load_spec, parse_text,
                                spec_from_doc)


def yaml_doc(text):
    return parse_text(text, "yaml")


class TestYaml:
    def test_example_round_trips(self):
        assert yaml_doc(example_text("yaml")) == EXAMPLE_WIRE

    def test_block_lists_and_nesting(self):
        doc = yaml_doc(
            "name: deep\n"
            "kernels:\n"
            "  - qrng_K2\n"
            "  - pathfinder\n"
            "axes:\n"
            "  peek: [false, true]\n"
            "  pc_bits:\n"
            "    - 0\n"
            "    - 4\n")
        assert doc["kernels"] == ["qrng_K2", "pathfinder"]
        assert doc["axes"]["peek"] == [False, True]
        assert doc["axes"]["pc_bits"] == [0, 4]

    def test_scalar_coercion_and_quotes(self):
        """``none`` is a pc_index axis value and must stay a string."""
        doc = yaml_doc(
            "a: 1.5\nb: -3\nc: true\nd: null\n"
            "e: 'quoted: text'\nf: \"false\"\ng: plain\nh: none\n")
        assert doc == {"a": 1.5, "b": -3, "c": True, "d": None,
                       "e": "quoted: text", "f": "false",
                       "g": "plain", "h": "none"}

    def test_comments_stripped_outside_quotes(self):
        doc = yaml_doc("a: 5   # trailing\n# full line\nb: '#keep'\n")
        assert doc == {"a": 5, "b": "#keep"}

    def test_tabs_rejected(self):
        with pytest.raises(SpecIOError, match="invalid YAML"):
            yaml_doc("a:\n\tb: 1\n")

    def test_inconsistent_indent_rejected(self):
        with pytest.raises(SpecIOError, match="invalid YAML"):
            yaml_doc("a:\n    b: 1\n  c: 2\n")

    def test_empty_document(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("# only comments\n")
        with pytest.raises(SpecIOError, match="mapping"):
            load_spec(path)

    def test_missing_pyyaml_names_the_fix(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "yaml", None)
        with pytest.raises(SpecIOError, match="PyYAML.*json"):
            yaml_doc("a: 1\n")


class TestLoading:
    def test_json_example_loads(self):
        assert parse_text(example_text("json"), "json") == EXAMPLE_WIRE

    def test_bad_json_raises(self):
        with pytest.raises(SpecIOError, match="JSON"):
            parse_text("{nope", "json")

    def test_unknown_format_raises(self):
        with pytest.raises(SpecIOError, match="format"):
            parse_text("{}", "toml")

    def test_detect_format(self):
        assert detect_format("sweep.json") == "json"
        assert detect_format("sweep.yaml") == "yaml"
        assert detect_format("sweep.YML") == "yaml"
        with pytest.raises(SpecIOError):
            detect_format("sweep.txt")

    def test_load_spec_yaml_and_json_agree(self, tmp_path):
        ypath = tmp_path / "s.yaml"
        jpath = tmp_path / "s.json"
        ypath.write_text(example_text("yaml"))
        jpath.write_text(example_text("json"))
        yspec, jspec = load_spec(ypath), load_spec(jpath)
        assert yspec == jspec == example_spec()
        assert yspec.digest() == jspec.digest()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SpecIOError, match="cannot read"):
            load_spec(tmp_path / "absent.json")

    def test_spec_from_doc_requires_mapping(self):
        with pytest.raises(SpecIOError, match="mapping"):
            spec_from_doc(["not", "a", "mapping"])

    def test_wire_errors_carry_source(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "kernels": []}')
        with pytest.raises(SpecIOError, match="bad.json"):
            load_spec(path)

    def test_example_spec_is_valid(self):
        spec = example_spec()
        assert spec.grid_size == 32
        assert spec.name == "ladder-mini"
