"""Schema files: variable declarations, selection thresholds, window settings.

A schema is a small line-oriented text file.  ``#`` starts a comment.
Recognized directives::

    class <name>
    var <name> categorical
    var <name> continuous [entropy|quantile]
    t_prime <float>          # cumulative-MI threshold for class-to-field selection
    t_field <float>          # cumulative-CMI threshold for field-to-field edges
    window <int>
    group <name>
    max_parents <int>
    max_bins <int>
    smoothing <float>
    max_model_cells <int>

Variable, class and group names are single tokens without whitespace
or ``#``, and variable names may not contain ``@``, which names lagged
nodes (``<var>@<slot>``).  The group column is neither the class nor a
field variable.  Every check names the offending line.

The JSON documents the package writes store each dataclass as its
fields (``dataclasses.asdict``); :func:`from_json` is the one step back,
and :meth:`Schema.from_doc` the one step from a schema's document back
to a :class:`Schema`.  :meth:`Schema.columns` names the columns a data
file must hold for a schema.  Every name rule lives here: a generator
config is judged by the :class:`Schema` it describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .errors import SchemaError

_KINDS = ("categorical", "continuous")
_DISCRETIZERS = ("entropy", "quantile")

# Schema knob -> (file-token parser, rule, the rule in words); the one
# range check for schema files and model documents alike, and the order
# format_schema writes the knobs in.
_KNOBS = {
    "t_prime": (float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "t_field": (float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "window": (int, lambda v: v >= 1, "must be >= 1"),
    "max_parents": (int, lambda v: v >= 0, "must be >= 0"),
    "max_bins": (int, lambda v: v >= 1, "must be >= 1"),
    "smoothing": (float, lambda v: v >= 0, "must be >= 0"),
    "max_model_cells": (int, lambda v: v >= 1, "must be >= 1"),
}


def _check_knob(name: str, value) -> None:
    _, rule, words = _KNOBS[name]
    if not rule(value):
        raise SchemaError(f"{name} {words}, got {value}")


def _claim_names(class_var: str | None, names: list[str], seen: set[str]) -> None:
    """Add field ``names`` to ``seen``; raise on a repeat or a clash with the class."""
    if class_var in seen:
        raise SchemaError(f"class variable {class_var!r} also declared as a field")
    for name in names:
        if name in seen:
            raise SchemaError(f"duplicate variable name {name!r}")
        if name == class_var:
            raise SchemaError(f"class variable {class_var!r} also declared as a field")
        seen.add(name)


def is_utf8(name: str) -> bool:
    """Whether ``name`` can be written as UTF-8, which a lone surrogate (a
    JSON ``\\ud800`` escape, say) cannot."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_token(what: str, name: str) -> None:
    if not is_utf8(name):
        raise SchemaError(f"{what} {name!r} cannot be written as UTF-8")
    if name.split() != [name]:
        raise SchemaError(f"{what} {name!r} must be one token without whitespace")
    if "#" in name:
        raise SchemaError(f"{what} {name!r} contains '#', which starts a schema-file comment")


def _check_group(class_var: str | None, group_key: str | None, fields: Collection[str]) -> None:
    if group_key is None:
        return
    if group_key == class_var:
        raise SchemaError(f"group column {group_key!r} is the class column; lags would leak it")
    if group_key in fields:
        raise SchemaError(f"group column {group_key!r} is also a field variable")


@dataclass(frozen=True)
class VariableSpec:
    """One field variable: a name, a kind, and (if continuous) a discretizer.

    A name may not hold whitespace, ``#``, which starts a schema-file
    comment, or ``@``, which separates a lagged node's slot.
    """

    name: str
    kind: str
    discretizer: str | None = None

    def __post_init__(self):
        _check_token("variable name", self.name)
        if "@" in self.name:
            raise SchemaError(
                f"variable name {self.name!r} contains '@', which lagged node names use"
            )
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for variable {self.name!r}")
        if self.kind == "continuous":
            if self.discretizer not in _DISCRETIZERS:
                raise SchemaError(
                    f"continuous variable {self.name!r} needs a discretizer "
                    f"in {_DISCRETIZERS}, got {self.discretizer!r}"
                )
        elif self.discretizer is not None:
            raise SchemaError(
                f"categorical variable {self.name!r} must not declare a discretizer"
            )


@dataclass(frozen=True)
class Schema:
    """Parsed schema: class column, field variables, and training knobs."""

    class_var: str
    field_vars: tuple[VariableSpec, ...]
    t_prime: float = 0.95
    t_field: float = 0.35
    window: int = 1
    group_key: str | None = None
    max_parents: int = 1
    max_bins: int = 16
    smoothing: float = 0.0
    max_model_cells: int = 10_000_000

    def __post_init__(self):
        _check_token("class name", self.class_var)
        if self.group_key is not None:
            _check_token("group name", self.group_key)
        _claim_names(self.class_var, self.var_names, set())
        _check_group(self.class_var, self.group_key, self.var_names)
        if not self.field_vars:
            raise SchemaError("schema declares no field variables")
        for name in _KNOBS:
            _check_knob(name, getattr(self, name))

    @staticmethod
    def from_doc(doc: dict) -> "Schema":
        """The inverse of ``asdict``: the schema whose document ``doc`` is."""
        s = from_json(doc)
        return Schema(**{**s, "field_vars": tuple(VariableSpec(**v) for v in s["field_vars"])})

    @property
    def var_names(self) -> list[str]:
        return [v.name for v in self.field_vars]

    def columns(self, require_class: bool = True) -> list[str]:
        """Columns a data file must hold: the fields, the group key, and
        with ``require_class`` the class."""
        cols = self.var_names
        if self.group_key is not None:
            cols.append(self.group_key)
        if require_class:
            cols.append(self.class_var)
        return cols

    def variable(self, name: str) -> VariableSpec:
        for v in self.field_vars:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def continuous_vars(self) -> list[VariableSpec]:
        return [v for v in self.field_vars if v.kind == "continuous"]

    @property
    def categorical_vars(self) -> list[VariableSpec]:
        return [v for v in self.field_vars if v.kind == "categorical"]


def from_json(value):
    """A decoded JSON value with every list made a tuple.

    A document written with ``asdict`` decodes as ``Spec(**from_json(doc))``,
    with each nested spec rebuilt the same way; ``null`` stays ``None``, and
    an unknown key is a ``TypeError``.
    """
    if isinstance(value, list):
        return tuple(map(from_json, value))
    if isinstance(value, dict):
        return {key: from_json(item) for key, item in value.items()}
    return value


def _parse_knob(name: str, token: str):
    parse = _KNOBS[name][0]
    try:
        value = parse(token)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise SchemaError(f"{name} expects {what}, got {token!r}") from None
    _check_knob(name, value)
    return value


def parse_schema(text: str) -> Schema:
    """Parse schema-file contents into a :class:`Schema` with defaults applied.

    Each line is checked as it is read, by the same rules
    :class:`VariableSpec` and :class:`Schema` apply, so a
    :class:`SchemaError` names the offending line: duplicate variables, unknown
    kinds or discretizers, ``@`` in a name, grouping by the class or a
    field, knobs out of range.
    """
    class_var: str | None = None
    fields: list[VariableSpec] = []
    seen: set[str] = set()
    options: dict[str, object] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        try:
            if directive == "class":
                if len(args) != 1:
                    raise SchemaError("class expects exactly one name")
                if class_var is not None:
                    raise SchemaError("class declared twice")
                class_var = args[0]
                _claim_names(class_var, [], seen)
            elif directive == "var":
                if len(args) < 2:
                    raise SchemaError("var expects a name and a kind")
                if len(args) > 3:
                    raise SchemaError(f"unexpected token {args[3]!r}")
                name, kind = args[0], args[1]
                default = "entropy" if kind == "continuous" else None
                spec = VariableSpec(name, kind, args[2] if len(args) > 2 else default)
                _claim_names(class_var, [name], seen)
                fields.append(spec)
            elif directive == "group":
                if len(args) != 1:
                    raise SchemaError("group expects exactly one column name")
                options["group_key"] = args[0]
            elif directive in _KNOBS:
                if len(args) != 1:
                    raise SchemaError(f"{directive} expects exactly one value")
                options[directive] = _parse_knob(directive, args[0])
            else:
                raise SchemaError(f"unknown directive {directive!r}")
            _check_group(class_var, options.get("group_key"), seen)  # whichever comes second
        except SchemaError as exc:
            raise SchemaError(str(exc), lineno) from None

    if class_var is None:
        raise SchemaError("schema is missing a class directive")
    return Schema(class_var=class_var, field_vars=tuple(fields), **options)  # type: ignore[arg-type]


def format_schema(schema: Schema) -> str:
    """Render a Schema back to its file form (used by the data generator)."""
    lines = [f"class {schema.class_var}"]
    if schema.group_key:
        lines.append(f"group {schema.group_key}")
    for v in schema.field_vars:
        if v.kind == "categorical":
            lines.append(f"var {v.name} categorical")
        else:
            lines.append(f"var {v.name} continuous {v.discretizer}")
    for name in _KNOBS:
        value = getattr(schema, name)
        if value or name != "smoothing":  # no smoothing line at 0
            lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"
