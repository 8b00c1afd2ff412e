"""The spec codec: one walk over dataclass fields, both JSON directions.

Every scenario and family section is a dataclass whose fields carry
codec metadata (see :func:`spec_field`); the JSON key is the field name.

``coerce``
    ``coerce(value, path, errors, spec)`` turns a JSON value into the
    field's value.  On a wrong value it appends a message to ``errors``
    and returns :data:`DEFAULT`, so the field keeps its own default.
    ``spec`` is the section parsed so far, for a size that depends on an
    earlier field.  A field without a coercer takes the JSON value as is.
``required``
    The coercer runs, with ``None``, even when the key is absent.
``omit_none``
    ``to_dict`` leaves the key out while the field is ``None``.

A section parses absent keys to their defaults and rejects unknown keys;
errors are collected with their dotted path, never raised mid-walk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

# Returned by a coercer to keep the field at its default.
DEFAULT = object()


class ScenarioValidationError(ValueError):
    """A scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid scenario ({} error{}):\n  - {}".format(
                len(self.errors),
                "s" if len(self.errors) != 1 else "",
                "\n  - ".join(self.errors),
            )
        )


def _dedupe(errors: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(errors))


def _take(data: Mapping, known: Sequence[str], path: str, errors: List[str]) -> Dict:
    """Copy ``data`` checking it is a mapping with only ``known`` keys."""
    if not isinstance(data, Mapping):
        errors.append(f"{path}: expected an object, got {type(data).__name__}")
        return {}
    unknown = sorted(set(data) - set(known))
    for key in unknown:
        errors.append(f"{path}: unknown field {key!r} (known: {', '.join(known)})")
    return {key: value for key, value in data.items() if key in known}


# ----------------------------------------------------------------------
# Field declarations
# ----------------------------------------------------------------------
def spec_field(default=MISSING, *, default_factory=MISSING, coerce=None,
               required: bool = False, omit_none: bool = False):
    """A dataclass field with codec metadata (see the module docstring)."""
    return field(default=default, default_factory=default_factory,
                 metadata={"coerce": coerce, "required": required,
                           "omit_none": omit_none})


def section_field(cls, optional: bool = False):
    """A nested section parsed by ``cls.from_dict``.

    An ``optional`` section defaults to ``None`` and reads ``null`` as
    absent; any other section defaults to ``cls()``.
    """
    def coerce(value, path, errors, spec):
        if optional and value is None:
            return DEFAULT
        return cls.from_dict(value, path, errors)

    if optional:
        return spec_field(None, coerce=coerce)
    return spec_field(default_factory=cls, coerce=coerce)


def section_list_field(cls, noun: str):
    """A list of ``cls`` sections, each parsed at ``path[index]``."""
    def coerce(value, path, errors, spec):
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path}: expected a list of {noun} objects")
            return DEFAULT
        return [cls.from_dict(item, f"{path}[{index}]", errors)
                for index, item in enumerate(value)]

    return spec_field(default_factory=list, coerce=coerce)


# ----------------------------------------------------------------------
# Coercers
# ----------------------------------------------------------------------
def _finite(value, path, errors):
    """``value`` as a float, or DEFAULT after reporting NaN or infinity.

    Python's ``json`` reads ``NaN`` and ``Infinity``; no spec field means
    either.
    """
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if math.isfinite(number):
        return number
    errors.append(f"{path}: expected a finite number, got {number!r}")
    return DEFAULT


def _number(value, path, errors, spec=None):
    if value is None:
        return DEFAULT
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{path}: expected a number, got {value!r}")
        return DEFAULT
    return _finite(value, path, errors)


def _integer(value, path, errors, spec=None):
    if value is None:
        return DEFAULT
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{path}: expected an integer, got {value!r}")
        return DEFAULT
    return int(value)


def _boolean(value, path, errors, spec=None):
    if not isinstance(value, bool):
        errors.append(f"{path}: expected true/false, got {value!r}")
        return DEFAULT
    return value


def _name(value, path, errors, spec=None):
    if not isinstance(value, str) or not value:
        errors.append(f"{path}: required (a non-empty string)")
        return DEFAULT
    return value


def _tuple_of(length: int, types, noun: str, convert):
    """Coercer for exactly ``length`` values of ``types``."""
    def coerce(value, path, errors, spec=None):
        if value is None:
            return DEFAULT
        if (not isinstance(value, (list, tuple)) or len(value) != length
                or any(isinstance(v, bool) or not isinstance(v, types)
                       for v in value)):
            errors.append(f"{path}: expected {length} {noun}, got {value!r}")
            return DEFAULT
        items = [convert(v, f"{path}[{index}]", errors)
                 for index, v in enumerate(value)]
        return DEFAULT if DEFAULT in items else tuple(items)

    return coerce


def _int_tuple(length: int):
    return _tuple_of(length, int, "integers", lambda v, path, errors: int(v))


def _float_tuple(length: int):
    return _tuple_of(length, (int, float), "numbers", _finite)


def _widths(value, path, errors, spec=None, positive=False):
    """A non-empty tuple of integer layer widths, each >= 1 if ``positive``."""
    if (not isinstance(value, (list, tuple)) or not value
            or any(isinstance(w, bool) or not isinstance(w, int)
                   or (positive and w < 1) for w in value)):
        errors.append(f"{path}: expected a non-empty list of "
                      f"{'positive ' if positive else ''}integer widths, "
                      f"got {value!r}")
        return DEFAULT
    return tuple(int(w) for w in value)


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
# The daemon takes a content digest, and so a to_dict, several times per
# request: the walk reads each class's layout once and skips scalars.
@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    return fields(cls)


@functools.lru_cache(maxsize=None)
def _names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


@functools.lru_cache(maxsize=None)
def _omit_none(cls) -> frozenset:
    return frozenset(f.name for f in fields(cls) if f.metadata.get("omit_none"))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value):
    """JSON-ready form of one field value (scalars pass through)."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS else _plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, Spec):
        return value.to_dict()
    return value


class Spec:
    """One spec section: ``to_dict`` / ``from_dict`` walk its fields.

    A tagged union names its tag field in ``_TAG`` (``_TAG_NOUN`` in
    messages, ``_TAG_DEFAULT`` when absent); ``_FIELDS`` maps each tag
    value to the fields that tag serializes, the rest keep their
    defaults.
    """

    _TAG: Optional[str] = None
    _TAG_NOUN = ""
    _TAG_DEFAULT = None
    _FIELDS: Dict[str, tuple] = {}

    def _keys(self) -> tuple:
        """The JSON keys, in order."""
        if self._TAG is None:
            return _names(type(self))
        return (self._TAG,) + self._FIELDS.get(getattr(self, self._TAG), ())

    def to_dict(self) -> Dict:
        """JSON-ready dict form."""
        omit = _omit_none(type(self))
        out = {}
        for key in self._keys():
            value = getattr(self, key)
            if value is None and key in omit:
                continue
            out[key] = value if type(value) in _SCALARS else _plain(value)
        return out

    def _decode(self, data, path: str, errors: List[str],
                field_path: Optional[str] = None) -> None:
        """Set the ``_keys()`` fields from ``data``, in field order.

        Unknown keys are reported at ``path``, field errors at
        ``field_path`` (default ``path``) plus the field name.
        """
        keys = self._keys()
        data = _take(data, keys, path, errors)
        field_path = path if field_path is None else field_path
        for f in _fields(type(self)):
            if f.name not in keys:
                continue
            if f.name in data or f.metadata.get("required"):
                value = data.get(f.name)
                coerce = f.metadata.get("coerce")
                if coerce is not None:
                    where = f"{field_path}.{f.name}" if field_path else f.name
                    value = coerce(value, where, errors, self)
                if value is not DEFAULT:
                    setattr(self, f.name, value)

    @classmethod
    def from_dict(cls, data, path: str, errors: List[str]):
        """Parse from dict form, collecting errors instead of raising."""
        spec = cls()
        if cls._TAG is not None:
            # The tag picks the fields, so it is checked before the walk.
            if not isinstance(data, Mapping):
                errors.append(f"{path}: expected an object, "
                              f"got {type(data).__name__}")
                return spec
            tag = data.get(cls._TAG, cls._TAG_DEFAULT)
            if tag not in tuple(cls._FIELDS):
                errors.append(f"{path}.{cls._TAG}: unknown {cls._TAG_NOUN} "
                              f"{tag!r} (known: {', '.join(cls._FIELDS)})")
                return spec
            setattr(spec, cls._TAG, tag)
        spec._decode(data, path, errors)
        return spec


class Document(Spec):
    """A top-level spec read from and written to a JSON file.

    The ``_VERSION_KEY`` field comes first in the JSON and must equal
    its default; ``_FIELD_PATH`` prefixes every field's error path.
    """

    _NOUN = "scenario"
    _VERSION_KEY = "schema_version"
    _FIELD_PATH = ""
    _BAD_JSON = "invalid JSON: {}"

    def to_dict(self) -> Dict:
        """JSON-ready dict form, the schema version first."""
        version = getattr(self, self._VERSION_KEY)
        return {self._VERSION_KEY: version, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping):
        """Parse + validate; raises :class:`ScenarioValidationError`."""
        if not isinstance(data, Mapping):
            raise ScenarioValidationError([
                f"{cls._NOUN}: expected a JSON object, got {type(data).__name__}"
            ])
        version = data.get(cls._VERSION_KEY)
        expected = cls.__dataclass_fields__[cls._VERSION_KEY].default
        if version != expected:
            raise ScenarioValidationError([
                f"{cls._VERSION_KEY}: this build reads version {expected}, "
                f"got {version!r} — regenerate the {cls._NOUN} or upgrade repro"
            ])
        errors: List[str] = []
        spec = cls()
        spec._decode(data, cls._NOUN, errors, cls._FIELD_PATH)
        errors.extend(spec.validate())
        if errors:
            raise ScenarioValidationError(_dedupe(errors))
        return spec

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialize to JSON text, optionally writing ``path``."""
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: Union[str, Path]):
        """Load from a JSON string or a ``.json`` file path."""
        return cls.from_dict(read_json(source, cls._NOUN, cls._BAD_JSON))


def read_json(source: Union[str, Path], noun: str = "scenario",
              bad_json: str = "invalid JSON: {}"):
    """Parse JSON text, or the file at ``source`` when it is a path.

    Raises :class:`ScenarioValidationError` when the file cannot be read
    or the text is not JSON (``bad_json`` formats the parser's error).
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        path = Path(source)
        try:
            source = path.read_text()
        except OSError as error:
            raise ScenarioValidationError(
                [f"cannot read {noun} file {path}: {error}"]
            ) from error
    try:
        return json.loads(source)
    except json.JSONDecodeError as error:
        raise ScenarioValidationError([bad_json.format(error)]) from error


def canonical_digest(payload: Dict) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
