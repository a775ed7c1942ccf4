import json
from dataclasses import asdict, replace

import pytest

from rarebayes import SchemaError, parse_schema
from rarebayes.schema import Schema, VariableSpec, format_schema

from fixture_configs import big_config, indep_config, messy_config, recovery_config

MINIMAL = """\
# minimal schema
class outcome
var color categorical
var amount continuous entropy
"""


def test_defaults_reproduce_published_operating_point():
    s = parse_schema(MINIMAL)
    assert s.t_prime == 0.95
    assert s.t_field == 0.35
    assert s.window == 1
    assert s.max_parents == 1
    assert s.max_bins == 16
    assert s.smoothing == 0.0
    assert s.group_key is None


def test_field_order_preserved():
    s = parse_schema(MINIMAL)
    assert s.var_names == ["color", "amount"]
    assert s.variable("color").kind == "categorical"
    assert s.variable("amount").discretizer == "entropy"


def test_continuous_defaults_to_entropy_discretizer():
    s = parse_schema("class c\nvar a continuous\nvar b continuous quantile\n")
    assert s.variable("a").discretizer == "entropy"
    assert s.variable("b").discretizer == "quantile"


def test_full_directive_set():
    text = """\
class y
group cust
var a categorical
var b continuous quantile
t_prime 0.8
t_field 0.2
window 3
max_parents 2
max_bins 8
smoothing 0.5
max_model_cells 1234
"""
    s = parse_schema(text)
    assert s.group_key == "cust"
    assert (s.t_prime, s.t_field, s.window) == (0.8, 0.2, 3)
    assert (s.max_parents, s.max_bins, s.smoothing, s.max_model_cells) == (2, 8, 0.5, 1234)


def test_duplicate_var_names_line():
    with pytest.raises(SchemaError, match="line 3.*duplicate"):
        parse_schema("class y\nvar x categorical\nvar x categorical\n")


def test_window_zero_rejected():
    with pytest.raises(SchemaError, match="line 3.*window"):
        parse_schema("class y\nvar x categorical\nwindow 0\n")


def test_threshold_out_of_range():
    with pytest.raises(SchemaError, match="line 3.*t_prime"):
        parse_schema("class y\nvar x categorical\nt_prime 1.5\n")
    with pytest.raises(SchemaError, match="t_field"):
        parse_schema("class y\nvar x categorical\nt_field -0.1\n")


@pytest.mark.parametrize("line", [
    "max_parents -1", "max_bins 0", "smoothing -1", "smoothing nan", "max_model_cells 0",
])
def test_knob_out_of_range_names_line(line):
    with pytest.raises(SchemaError, match=f"line 3.*{line.split()[0]}"):
        parse_schema(f"class y\nvar x categorical\n{line}\n")


def test_at_sign_in_variable_name_rejected():
    with pytest.raises(SchemaError, match="line 2.*'x@1'.*'@'"):
        parse_schema("class y\nvar x@1 categorical\n")
    with pytest.raises(SchemaError, match="'@'"):
        VariableSpec("v@2", "continuous", "entropy")


@pytest.mark.parametrize("name", ["a b", " a", "a\t", "a b", ""])
def test_whitespace_in_names_rejected(name):
    # the line format splits on whitespace, so such a name cannot round-trip
    x = (VariableSpec("x", "categorical"),)
    with pytest.raises(SchemaError, match="variable name .*without whitespace"):
        VariableSpec(name, "categorical")
    with pytest.raises(SchemaError, match="class name .*without whitespace"):
        Schema(class_var=name, field_vars=x)
    with pytest.raises(SchemaError, match="group name .*without whitespace"):
        Schema(class_var="y", field_vars=x, group_key=name)


@pytest.mark.parametrize("name", ["a#b", "#", "a#"])
def test_hash_in_names_rejected(name):
    # format_schema would write the name into a line parse_schema cuts at '#'
    x = (VariableSpec("x", "categorical"),)
    with pytest.raises(SchemaError, match="variable name .*'#'"):
        VariableSpec(name, "categorical")
    with pytest.raises(SchemaError, match="class name .*'#'"):
        Schema(class_var=name, field_vars=x)
    with pytest.raises(SchemaError, match="group name .*'#'"):
        Schema(class_var="y", field_vars=x, group_key=name)


@pytest.mark.parametrize("name", ["\ud800", "go\udfffod"])
def test_names_utf8_cannot_hold_rejected(name):
    # a lone surrogate, which a model document's JSON escape can make, has no UTF-8 form
    x = (VariableSpec("x", "categorical"),)
    with pytest.raises(SchemaError, match="variable name .*UTF-8"):
        VariableSpec(name, "categorical")
    with pytest.raises(SchemaError, match="class name .*UTF-8"):
        Schema(class_var=name, field_vars=x)
    with pytest.raises(SchemaError, match="group name .*UTF-8"):
        Schema(class_var="y", field_vars=x, group_key=name)


def test_unknown_kind():
    with pytest.raises(SchemaError, match="line 2.*unknown kind"):
        parse_schema("class y\nvar x ordinal\n")


def test_unknown_directive():
    with pytest.raises(SchemaError, match="line 1.*unknown directive"):
        parse_schema("classs y\n")


def test_missing_class():
    with pytest.raises(SchemaError, match="missing a class"):
        parse_schema("var x categorical\n")


def test_class_also_declared_as_field():
    with pytest.raises(SchemaError, match="line 2"):
        parse_schema("class y\nvar y categorical\nvar x categorical\n")
    # same collision when the class directive comes second
    with pytest.raises(SchemaError, match="also declared"):
        parse_schema("var y categorical\nclass y\n")


@pytest.mark.parametrize("text, line", [
    ("class y\nvar x categorical\ngroup y\n", 3),
    ("group y\nvar x categorical\nclass y\n", 3),  # class directive second
])
def test_group_by_class_column_names_line(text, line):
    with pytest.raises(SchemaError, match=f"line {line}: group column 'y' is the class"):
        parse_schema(text)
    with pytest.raises(SchemaError, match="is the class column"):
        Schema(class_var="y", field_vars=(VariableSpec("x", "categorical"),),
               group_key="y")


def test_categorical_with_discretizer_rejected():
    with pytest.raises(SchemaError, match="line 2"):
        parse_schema("class y\nvar x categorical entropy\n")


def test_unknown_discretizer():
    with pytest.raises(SchemaError, match="discretizer"):
        parse_schema("class y\nvar x continuous kde\n")


def test_no_field_vars():
    with pytest.raises(SchemaError, match="no field"):
        parse_schema("class y\n")


def test_comments_and_blank_lines_ignored():
    s = parse_schema("\n# header\nclass y  # trailing comment\n\nvar x categorical\n")
    assert s.class_var == "y"


def test_variable_spec_invariant():
    with pytest.raises(SchemaError):
        VariableSpec("v", "continuous")          # discretizer required
    with pytest.raises(SchemaError):
        VariableSpec("v", "categorical", "entropy")


def test_schema_object_validation():
    with pytest.raises(SchemaError):
        Schema(class_var="y", field_vars=(VariableSpec("x", "categorical"),), window=0)
    with pytest.raises(SchemaError):
        Schema(class_var="y", field_vars=(VariableSpec("x", "categorical"),),
               max_parents=-1)


def test_format_schema_round_trip():
    s = parse_schema(
        "class y\ngroup g\nvar a categorical\nvar b continuous quantile\n"
        "t_prime 0.5\nwindow 2\nsmoothing 1.0\n"
    )
    assert parse_schema(format_schema(s)) == s


@pytest.mark.parametrize("smoothing, line", [(0.0, ""), (0.5, "smoothing 0.5\n")])
def test_format_schema_text(smoothing, line):
    """Every knob is written in one fixed order, the defaults too, except
    ``smoothing`` at 0."""
    s = Schema(class_var="y", group_key="g", smoothing=smoothing, window=3,
               field_vars=(VariableSpec("a", "categorical"),
                           VariableSpec("b", "continuous", "quantile")))
    assert format_schema(s) == (
        "class y\ngroup g\nvar a categorical\nvar b continuous quantile\n"
        "t_prime 0.95\nt_field 0.35\nwindow 3\nmax_parents 1\nmax_bins 16\n"
        f"{line}max_model_cells 10000000\n"
    )


@pytest.mark.parametrize("text, line", [
    ("class y\nvar a categorical\nvar b categorical\ngroup a\n", 4),
    ("class y\ngroup b\nvar a categorical\nvar b continuous\n", 4),  # var second
])
def test_group_named_like_a_field_names_line(text, line):
    # the generator would write a header holding two columns of that name
    with pytest.raises(SchemaError, match=f"line {line}: group column '.' is also a field"):
        parse_schema(text)
    with pytest.raises(SchemaError, match="group column 'a' is also a field variable"):
        Schema(class_var="y", field_vars=(VariableSpec("a", "categorical"),),
               group_key="a")


@pytest.mark.parametrize("config", [recovery_config, indep_config, messy_config, big_config])
@pytest.mark.parametrize("window", [1, 3])
def test_from_doc_inverts_asdict(config, window):
    """A schema's JSON document, as the model file holds it, reads back
    equal, grouped (``messy_config``) and windowed ones included."""
    schema = replace(config(n=1).to_schema(), window=window, smoothing=0.5)
    assert Schema.from_doc(json.loads(json.dumps(asdict(schema)))) == schema
