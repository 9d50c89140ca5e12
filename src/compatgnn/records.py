"""JSON files and typed records: every JSON object the package reads
(config, model spec, run record, meta.json) becomes a dataclass through
`decode`, which checks each value against its field annotation."""

import contextlib
import dataclasses
import json
import types
import typing


@contextlib.contextmanager
def reading(path, error):
    """Reads `path` in the block, turning the failures of reading it into
    `error`: a missing file is "not found", any other OSError (a directory,
    no permission) or a byte that is not UTF-8 names its cause."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{path}: not found") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error):
    """A JSON file; a missing, unreadable or malformed one raises `error`."""
    with reading(path, error):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from None


def decode(cls, obj, error, where):
    """Dataclass `cls` from the JSON object `obj`; omitted keys take the
    field defaults. Each value must match its annotation: int, float (an
    int is one too), bool (never an int or float), str or a Literal of
    strs, dict, list[T], T | None or a dataclass. Otherwise `error` names
    `where` and the path:
    "malformed model spec: layers[0].channels[2].k: expected int, got str"."""
    def fail(path, problem):
        raise error(f"malformed {where}: {path + ': ' if path else ''}{problem}")

    def value(tp, v, path):
        if typing.get_origin(tp) is typing.Literal:
            tp = str
        if dataclasses.is_dataclass(tp):
            return record(tp, v, path)
        if isinstance(tp, types.UnionType):   # T | None
            inner, = (a for a in tp.__args__ if a is not type(None))
            return None if v is None else value(inner, v, path)
        if isinstance(tp, types.GenericAlias):   # list[T]
            if not isinstance(v, list):
                fail(path, f"expected list, got {type(v).__name__}")
            item = tp.__args__[0]
            # split files hold long int lists: take them as json.load made them
            if item in (int, float, str) and all(type(x) is item for x in v):
                return v
            return [value(item, x, f"{path}[{i}]") for i, x in enumerate(v)]
        if not isinstance(v, (int, float) if tp is float else tp) or (
                isinstance(v, bool) and tp is not bool):
            fail(path, f"expected {tp.__name__}, got {type(v).__name__}")
        return v

    def record(tp, d, path):
        if not isinstance(d, dict):
            fail(path, f"expected a JSON object, got {type(d).__name__}")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = sorted(set(d) - set(fields))
        if unknown and not path:
            raise error(f"unknown {where} keys: {unknown}")
        if unknown:
            fail(path, f"unknown {tp.__name__} keys: {unknown}")
        for name, f in fields.items():
            if name not in d and f.default is f.default_factory is dataclasses.MISSING:
                fail(path, f"missing key {name!r}")
        kwargs = {k: value(fields[k].type, v, f"{path}.{k}" if path else k)
                  for k, v in d.items()}
        try:
            return tp(**kwargs)
        except error as exc:    # the record's own check (__post_init__)
            fail(path, str(exc))

    return record(cls, obj, "")
