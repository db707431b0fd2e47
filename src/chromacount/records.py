"""Persistent store of best-known scan results.

One JSON file maps the key "n:d:q:eps" to the best count seen (a decimal
string, since the values outgrow 64-bit quickly), the witnessing graph6
string, a timestamp and the tool version.  Updates are monotone: a stored
best never decreases.  Writes go through a temp file and an atomic rename.
Inside `locked()` a run holds an exclusive flock on the sidecar file
<store>.lock and works on the store as it is then, so that concurrent runs
lose no update.
"""
from __future__ import annotations

import fcntl
import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timezone

from .errors import InvalidParameterError


class RecordStore:
    def __init__(self, path: str, version: str):
        self.path = path
        self.version = version
        # read now, so that a bad store is reported before any work
        self.records = self._read()

    def _read(self) -> dict[str, dict]:
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, dict):
            raise InvalidParameterError(f"records store {self.path} is not a JSON object")
        for key, rec in records.items():
            if not (isinstance(rec, dict) and isinstance(rec.get("best"), str) and rec["best"].isdecimal()):
                raise InvalidParameterError(f'records store {self.path}: entry {key!r} has no decimal-string "best"')
        return records

    @contextmanager
    def locked(self) -> Iterator[RecordStore]:
        """Hold the store's lock and re-read it: update() and save() inside
        apply to its current contents, and no other run writes in between."""
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            self.records = self._read()
            yield self

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
