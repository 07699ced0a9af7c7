"""key = value configuration files.

One assignment per line, ``#`` starts a comment, blank lines are
ignored.  Every subcommand declares each of its settings once, as
``key: (type_name, default)``; :func:`load_config` takes that table.
Unknown keys are errors, as are values that do not parse at the
declared type.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError


def _parse_bool(raw: str):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_list(item_parser):
    def parse(raw: str):
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        return [item_parser(p) for p in parts]

    return parse


PARSERS = {
    "int": int,
    "float": float,
    "str": lambda raw: raw.strip(),
    "bool": _parse_bool,
    "list[int]": _parse_list(int),
    "list[float]": _parse_list(float),
}


def load_config(path, settings: dict) -> dict:
    """Every setting of ``settings``, a {key: (type_name, default)} table,
    at its default or at the value the key = value file ``path`` assigns.

    ``path`` may be None for defaults only.  Unknown keys, repeated keys,
    and unparseable values are errors naming the line.
    """
    defaults = {key: default for key, (_, default) in settings.items()}
    if path is None:
        return defaults
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}, line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in settings:
            known = ", ".join(sorted(settings))
            raise ConfigError(f"{path}, line {line_no}: unknown key {key!r} (known: {known})")
        if key in out:
            raise ConfigError(f"{path}, line {line_no}: key {key!r} assigned twice")
        type_name = settings[key][0]
        try:
            out[key] = PARSERS[type_name](raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}, line {line_no}: bad value for {key!r} "
                f"(expected {type_name}): {exc}"
            ) from exc
    return {**defaults, **out}
