"""Atomic text-file output: no workflow ever leaves a partial file behind."""

import contextlib
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
