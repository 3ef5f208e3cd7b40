"""Output files as CSV or JSON text, each written atomically: none is left partial."""

import contextlib
import json
import os
import tempfile
from pathlib import Path

from .errors import ConfigError


def write_text_atomic(path, content: str) -> None:
    """Write via a temp file in the target directory plus an atomic rename.
    A write that fails is a :class:`ConfigError` naming ``path``."""
    path = Path(path)
    tmp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header``, then one comma-joined line per row: text as is, any
    other value as its ``repr``, so a row of ``.tolist()`` floats round-trips."""
    lines = [header, *([v if isinstance(v, str) else repr(v) for v in row] for row in rows)]
    write_text_atomic(path, "".join(",".join(line) + "\n" for line in lines))


def json_text(value) -> str:
    """``value`` as output-file JSON: keys sorted, two-space indent, final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"
