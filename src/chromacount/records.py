"""Persistent store of best-known scan results.

One JSON file maps the key "n:d:q:eps" to the best count seen (a decimal
string, since the values outgrow 64-bit quickly), the witnessing graph6
string, a timestamp and the tool version.  Updates are monotone: a stored
best never decreases.  Writes go through a temp file and an atomic rename.
"""
from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

from .errors import InvalidParameterError


class RecordStore:
    def __init__(self, path: str, version: str):
        self.path = path
        self.version = version
        self.records: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self.records = json.load(fh)
            if not isinstance(self.records, dict):
                raise InvalidParameterError(f"records store {path} is not a JSON object")
            for key, rec in self.records.items():
                if not (isinstance(rec, dict) and isinstance(rec.get("best"), str) and rec["best"].isdecimal()):
                    raise InvalidParameterError(f'records store {path}: entry {key!r} has no decimal-string "best"')

    @staticmethod
    def key(n: int, d: int, q: int, eps_key: str) -> str:
        return f"{n}:{d}:{q}:{eps_key}"

    def best(self, key: str) -> int | None:
        rec = self.records.get(key)
        return int(rec["best"]) if rec else None

    def update(self, n: int, d: int, q: int, eps_key: str, count: int, argmax: str | None) -> bool:
        """Record `count` for the key if it beats the stored best.  Returns
        True when the record improved."""
        key = self.key(n, d, q, eps_key)
        current = self.best(key)
        if current is not None and current >= count:
            return False
        self.records[key] = {
            "n": n,
            "d": d,
            "q": q,
            "eps": eps_key,
            "best": str(count),
            "argmax": argmax,
            "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "version": self.version,
        }
        return True

    def save(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(prefix=".records-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.records, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
