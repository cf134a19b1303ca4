"""Run manifests.

Every command records what it ran with; downstream commands verify they are
fed matching artifacts. The manifest hash covers only reproducible fields
(command, inputs, config, seed, package version) - wall-clock timestamps live
in the sidecar for humans but never enter the hash, so re-running a seeded
command reproduces identical output bytes. Both are strict JSON: a
non-finite number raises instead of being written as `Infinity` or `NaN`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from . import __version__
from .errors import InputError


@dataclass
class RunManifest:
    command: str
    inputs: dict[str, str]      # name -> stable identity (content hash or basename)
    config: dict
    seed: int | None = None
    version: str = __version__
    created: str = ""
    paths: dict[str, str] = field(default_factory=dict)   # sidecar-only, for humans

    def stable_fields(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(self.stable_fields(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def write_sidecar(self, out_path: Path | str) -> Path:
        sidecar = Path(str(out_path) + ".manifest.json")
        record = dict(self.stable_fields())
        record["hash"] = self.hash
        record["paths"] = self.paths
        record["created"] = self.created or time.strftime("%Y-%m-%dT%H:%M:%S%z")
        sidecar.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n",
                           encoding="utf-8")
        return sidecar


def file_header(kind: str, manifest: RunManifest, **extra) -> dict:
    header = {"kind": kind, "manifest_hash": manifest.hash}
    header.update(extra)
    return header


def read_jsonl(path: Path | str, expected_kind: str) -> tuple[dict, list[dict]]:
    """Header + records of one artifact file, checking its kind and its manifest hash."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    objects = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{number}: not valid JSON: {exc.msg} "
                             f"(column {exc.colno})") from None
        except (ValueError, RecursionError) as exc:     # an over-long int, too deep a nesting
            raise InputError(f"{path}:{number}: not valid JSON: {exc}") from None
    if not objects:
        raise InputError(f"{path}: empty artifact file")
    header = objects[0]
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != expected_kind:
        raise InputError(f"{path}: expected a {expected_kind!r} file, found {kind!r}")
    if not isinstance(header.get("manifest_hash"), str):
        raise InputError(f"{path}: header carries no string 'manifest_hash'")
    return header, objects[1:]


def record_line(path: Path | str, index: int) -> int:
    """Line number of record `index` of a file `read_jsonl` read (blank lines skipped)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = (number for number, line in enumerate(text.splitlines(), 1) if line.strip())
    return next(islice(lines, index + 1, None))


def write_jsonl(path: Path | str, header: dict, records: list[dict]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ": ")) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ": ")) + "\n")
