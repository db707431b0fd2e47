"""Persistent store of best-known scan results.

One JSON file maps the key "n:d:q:eps" to the best count seen (a decimal
string, since the values outgrow 64-bit quickly), the witnessing graph6
string, a timestamp and the tool version.  Updates are monotone: a stored
best never decreases, and of equal counts the least graph6 is kept.  Writes
go through a temp file and an atomic rename.  Inside `locked()` a run holds
an exclusive flock on the sidecar file <store>.lock and works on the store as
it is then, so that concurrent runs lose no update.
"""
from __future__ import annotations

import fcntl
import json
import os
import stat
import sys
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
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                records = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes or syntax, too long an integer, too deep
            raise InvalidParameterError(f"records store {self.path} is not JSON: {exc}") from None
        if not isinstance(records, dict):
            raise InvalidParameterError(f"records store {self.path} is not a JSON object")
        limit = sys.get_int_max_str_digits()  # 0: none; update()'s int() refuses a longer "best"
        for key, rec in records.items():
            # isdecimal() alone admits non-ASCII digits, such as fullwidth "９", which int() reads
            if not (isinstance(rec, dict) and isinstance(rec.get("best"), str) and rec["best"].isascii() and rec["best"].isdecimal()):
                raise InvalidParameterError(f'records store {self.path}: entry {key!r} has no decimal-string "best"')
            if 0 < limit < len(rec["best"]):
                raise InvalidParameterError(f'records store {self.path}: entry {key!r} has a "best" of more than {limit} digits')
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

    def update(self, n: int, d: int, q: int, eps_key: str, count: int, argmax: str | None) -> bool:
        """Record `count` for the key if it beats the stored best, or ties it
        with a lesser graph6, as constrained_scan breaks ties; an entry with
        no graph6 yields to one with.  Returns True when the entry changed."""
        key = self.key(n, d, q, eps_key)
        rec = self.records.get(key)
        if rec is not None:
            best, held = int(rec["best"]), rec.get("argmax")
            if best > count or best == count and (argmax is None or isinstance(held, str) and held <= argmax):
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
        """Replace the store, keeping its file mode.  A new store gets 0o666
        less the umask, as open() would make it."""
        try:
            mode = stat.S_IMODE(os.stat(self.path).st_mode)
        except FileNotFoundError:
            mode = None
        directory = os.path.dirname(os.path.abspath(self.path))
        tmp = os.path.join(directory, f".records-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if mode is not None:
                    os.fchmod(fh.fileno(), mode)
                json.dump(self.records, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
