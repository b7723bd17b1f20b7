"""Settings read against their dataclass declarations.

Every settings input names the fields of one dataclass: an experiment
INI's `[experiment]` section (`ExperimentConfig`), a timing file
(`DevTiming`), a trace header (`TraceHeader`), a `--page-class` spec
(`PageClass`) and a report's JSON objects (`SimReport`, `AppResult`,
`EnergyReport`). This module imports nothing from the package.
"""

from __future__ import annotations

import json
from configparser import ConfigParser
from dataclasses import MISSING

# Per field annotation: how its text parses (None: it has no text form) and
# the types of the JSON values it takes. `X | None` reads as X and takes
# JSON null too. A list of paths is comma-separated, a list of numbers
# comma- or space-separated; booleans take `configparser`'s words.
TYPES = {
    "str": (str, (str,)),
    "int": (int, (int,)),
    "float": (float, (int, float)),
    "bool": (lambda text: ConfigParser.BOOLEAN_STATES[text.lower()], (bool,)),
    "tuple[str, ...]": (
        lambda text: tuple(t.strip() for t in text.split(",") if t.strip()), (list,)),
    "tuple[int, ...]": (
        lambda text: tuple(int(t) for t in text.replace(",", " ").split()), (list,)),
    "dict": (None, (dict,)),
    "list": (None, (list,)),
    "EnergyReport": (None, (dict,)),    # a nested report object
}


def read_fields(cls, source, entries, decoded: bool = False) -> dict:
    """Keyword arguments of dataclass `cls` from `entries`.

    Each entry is `(line, key, value)`: `value` is text, or with `decoded`
    a decoded JSON value, and `line` locates it in `source` (None: nowhere
    more exact). Raises one ValueError that lists every problem under its
    place, `source:line` or `source`: the required fields that no entry
    gives, and each unexpected key, repeated key or value that its field's
    type rejects, with its text.
    """
    # `dataclasses.fields(cls)` by name, without building a dict per call.
    source, declared = str(source), cls.__dataclass_fields__
    kwargs, seen, problems, unexpected = {}, set(), {}, {}
    for line, key, value in entries:
        place = source if line is None else f"{source}:{line}"
        shown = json.dumps(value) if decoded else repr(value)
        f = declared.get(key)
        if f is None:
            unexpected.setdefault(place, []).append(f"{key}={shown}")
            continue
        if key in seen:
            problems.setdefault(place, []).append(f"repeated key {key}={shown}")
            continue
        seen.add(key)
        base = f.type.removesuffix(" | None")
        parse, json_types = TYPES[base]
        if decoded:
            ok = type(value) in json_types or (value is None and base != f.type)
        else:
            try:
                value, ok = parse(value), True
            except (ValueError, KeyError):
                ok = False
        if ok:
            kwargs[key] = value
        else:
            problems.setdefault(place, []).append(f"{key} is {shown}, not {f.type}")
    for place, found in unexpected.items():
        problems.setdefault(place, []).insert(0, f"unexpected keys {', '.join(found)}")
    missing = [name for name, f in declared.items()
               if name not in seen and f.default is MISSING]
    if missing:
        problems.setdefault(source, []).insert(0, f"missing keys {', '.join(missing)}")
    if problems:
        raise ValueError("; ".join(f"{where}: {'; '.join(found)}"
                                   for where, found in problems.items()))
    return kwargs


def json_object(pairs: list) -> dict:
    """`json.loads`'s object_pairs_hook: the object as a dict, where
    json.loads would keep the last of two equal keys; ValueError names a
    repeated key with its value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key}={json.dumps(value)}")
        obj[key] = value
    return obj
