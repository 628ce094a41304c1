"""Persistence: the run repository and durable job store (SQLite).

Two responsibilities, one database file:

* **Run repository** — the one result store. Every
  :class:`~repro.harness.runner.RunResult` the service or a ``repro
  sweep`` has produced, keyed by its cell's content address
  (:attr:`~repro.harness.sweep.Cell.key`). That shared key is the dedupe
  mechanism: when a new submission or sweep contains a cell
  whose key is already present, the stored result is served and no
  worker runs. Results are stored as their canonical JSON record plus a
  SHA-256 ``digest`` of it, so clients can compare runs across
  submissions (and against the committed ``BENCH_*.json`` digests)
  without transferring the records. Each hit refreshes the run's
  ``last_used`` time, and :meth:`RunRepository.prune` evicts the least
  recently used runs that no job references.

* **Job store** — every submitted job (spec, priority, state-machine
  timestamps) and its per-cell execution ledger (state, source,
  attempts/retries/timeouts, wall time). The ``jobs`` table is the
  service's queue: :meth:`RunRepository.claim_next_job` takes the next
  ``queued`` job, and every other state change is a compare-and-set
  (:meth:`RunRepository.transition`) against :data:`TRANSITIONS`. Jobs
  survive a service restart: :meth:`RunRepository.recover` re-queues
  anything left ``running`` by a previous process. A cell's outcome
  commits with its ledger row (:meth:`RunRepository.store_cell_result`,
  :meth:`RunRepository.serve_cell_from_store`), so no crash separates
  a stored result from the cell it finished.

A repository keeps one SQLite connection, opened when it is built and
shared by every thread under a lock: API handler threads and the
scheduler thread take turns, one transaction per call. The database
runs in WAL mode with ``synchronous=FULL``, so every commit fsyncs the
log before it returns, and a killed server or a power loss keeps every
committed state change. Other processes (a ``repro sweep`` into the
service's store, inspection tools) read and write the same file
concurrently. :meth:`RunRepository.close` ends the connection; the last
connection to close checkpoints the log into the database file and
deletes it. A child forked while a repository is open (a worker-fleet
process) must not use it; see the comment at the connection.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.harness.runner import RunResult
from repro.svc.spec import SweepSpec

#: Environment variable naming the directory of the default store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The job state machine: state -> states it may move to::
#:
#:     queued ──> running ──> done
#:        │         │ │ └───> failed
#:        │         │ └─────> cancelled     (DELETE mid-run)
#:        │         └───────> queued        (restart recovery)
#:        └─────────────────> cancelled     (DELETE while queued)
#:
#: Terminal states (``done`` / ``failed`` / ``cancelled``) admit none.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed", "cancelled", "queued"),
    "done": (),
    "failed": (),
    "cancelled": (),
}
#: Cell lifecycle states.
CELL_STATES = ("pending", "running", "done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    cache_key   TEXT PRIMARY KEY,
    digest      TEXT NOT NULL,
    result_json TEXT NOT NULL,
    created_at  REAL NOT NULL,
    last_used   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    id           TEXT UNIQUE,
    spec_json    TEXT NOT NULL,
    state        TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    job_id    TEXT NOT NULL,
    label     TEXT NOT NULL,
    cache_key TEXT NOT NULL,
    state     TEXT NOT NULL,
    source    TEXT,
    attempts  INTEGER NOT NULL DEFAULT 0,
    retries   INTEGER NOT NULL DEFAULT 0,
    timeouts  INTEGER NOT NULL DEFAULT 0,
    wall_time REAL NOT NULL DEFAULT 0,
    error     TEXT,
    PRIMARY KEY (job_id, label)
);
CREATE INDEX IF NOT EXISTS cells_by_key ON cells (cache_key);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state);
"""

#: The one statement that stores a result. First write wins: cells are
#: deterministic functions of their key, so a concurrent duplicate is
#: identical by construction and need not be rewritten.
_INSERT_RUN = ("INSERT OR IGNORE INTO runs "
               "(cache_key, digest, result_json, created_at, last_used) "
               "VALUES (?, ?, ?, ?, ?)")


def default_db_path() -> str:
    """``$REPRO_CACHE_DIR/sweeps.db``, else ``~/.cache/repro/sweeps.db``."""
    root = (os.environ.get(CACHE_DIR_ENV)
            or os.path.join(os.path.expanduser("~"), ".cache", "repro"))
    return os.path.join(root, "sweeps.db")


def result_digest(record: Any) -> str:
    """Canonical SHA-256 of a JSON-safe result record.

    Sorted keys, compact separators. The one result digest: the run
    store, the service and ``repro bench`` (every ``BENCH_*.json``
    ``result_digest``) all call it, so their digests are comparable.
    """
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class StateError(ReproError):
    """An illegal job state transition was attempted."""


class RunRepository:
    """SQLite-backed store of runs and jobs (see module docstring)."""

    def __init__(self, path: object) -> None:
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        # One connection for the repository's life. A process that forks
        # while holding it (the service's WorkerFleet, `repro sweep
        # --jobs N` with a store) must not touch it in the child: SQLite
        # forbids using a connection opened before fork() there, and
        # fleet workers only run cells.
        self._conn = sqlite3.connect(self.path, timeout=30.0,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        # FULL fsyncs the log at every commit: a kept connection
        # checkpoints only every 1,000 log pages, so NORMAL could lose
        # recent commits to a power loss.
        self._conn.execute("PRAGMA synchronous=FULL")
        self._lock = threading.Lock()
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            columns = {row["name"] for row
                       in conn.execute("PRAGMA table_info(runs)")}
            if "last_used" not in columns:
                # A store from before LRU pruning: recency starts at
                # each run's creation.
                conn.execute("ALTER TABLE runs ADD COLUMN "
                             "last_used REAL NOT NULL DEFAULT 0")
                conn.execute("UPDATE runs SET last_used = created_at")

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """Run one transaction on the kept connection, under the lock.

        The transaction commits when the block ends, or rolls back if
        it raises. The lock is not reentrant: no block calls a method
        that takes it.
        """
        with self._lock, self._conn:
            yield self._conn

    def close(self) -> None:
        """Close the connection; later calls raise ``ProgrammingError``."""
        with self._lock:
            self._conn.close()

    # -- runs (content-addressed results) ----------------------------------

    def store_run(self, cache_key: str, result: RunResult) -> str:
        """Persist one result; returns its digest.

        First write wins (:data:`_INSERT_RUN`).
        """
        row = self._run_row(cache_key, result)
        with self._connect() as conn:
            conn.execute(_INSERT_RUN, row)
        return row[1]

    @staticmethod
    def _run_row(cache_key: str, result: RunResult) -> Tuple:
        """:data:`_INSERT_RUN`'s parameters, encoded outside the lock."""
        record = result.to_dict()
        now = time.time()
        return (cache_key, result_digest(record), json.dumps(record),
                now, now)

    def load_run(self, cache_key: str) -> Optional[RunResult]:
        """The stored result, or None; a hit refreshes its recency."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT result_json FROM runs WHERE cache_key = ?",
                (cache_key,)).fetchone()
            if row is not None:
                self._touch(conn, cache_key)
        if row is None:
            return None
        return RunResult.from_dict(json.loads(row["result_json"]))

    @staticmethod
    def _touch(conn: sqlite3.Connection, cache_key: str) -> bool:
        cur = conn.execute(
            "UPDATE runs SET last_used = ? WHERE cache_key = ?",
            (time.time(), cache_key))
        return cur.rowcount > 0

    def run_digest(self, cache_key: str) -> Optional[str]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT digest FROM runs WHERE cache_key = ?",
                (cache_key,)).fetchone()
        return None if row is None else row["digest"]

    def run_count(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def prune(self, max_entries: int) -> int:
        """Evict least-recently-used runs beyond the cap; return the count.

        A run that any job cell references is never evicted, so every
        job's results stay fetchable; the store may therefore stay above
        the cap.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        with self._connect() as conn:
            cur = conn.execute(
                "DELETE FROM runs WHERE cache_key IN ("
                "SELECT cache_key FROM runs WHERE cache_key NOT IN "
                "(SELECT cache_key FROM cells) ORDER BY last_used, rowid "
                "LIMIT max(0, (SELECT COUNT(*) FROM runs) - ?))",
                (max_entries,))
            return cur.rowcount

    # -- jobs --------------------------------------------------------------

    def create_job(self, spec: SweepSpec, priority: int = 0,
                   cache_keys: Optional[Dict[str, str]] = None
                   ) -> Dict[str, Any]:
        """Insert a job (state ``queued``) and its pending cell ledger.

        Returns the job record. The job id is readable and collision
        free: a monotonic sequence number plus a prefix of the spec
        digest (``j000007-3fa9c1d2``).
        """
        spec_json = json.dumps(spec.to_dict(), sort_keys=True)
        spec_digest = hashlib.sha256(
            spec_json.encode("utf-8")).hexdigest()[:8]
        keys = cache_keys if cache_keys is not None else spec.cache_keys()
        now = time.time()
        with self._connect() as conn:
            cur = conn.execute(
                "INSERT INTO jobs (id, spec_json, state, priority, "
                "submitted_at) VALUES (NULL, ?, 'queued', ?, ?)",
                (spec_json, priority, now))
            job_id = f"j{cur.lastrowid:06d}-{spec_digest}"
            conn.execute("UPDATE jobs SET id = ? WHERE seq = ?",
                         (job_id, cur.lastrowid))
            conn.executemany(
                "INSERT INTO cells (job_id, label, cache_key, state) "
                "VALUES (?, ?, ?, 'pending')",
                [(job_id, label, key) for label, key in keys.items()])
            return self._load_job(conn, job_id)

    def transition(self, job_id: str, old: str, new: str,
                   error: Optional[str] = None) -> bool:
        """Move a job from ``old`` to ``new``; False if it was not in ``old``.

        One compare-and-set ``UPDATE``, so of two threads moving the same
        job (the scheduler claiming it, an API thread cancelling it) only
        one wins. A move to ``cancelled`` cancels the job's unfinished
        cells in the same transaction. An edge missing from
        :data:`TRANSITIONS` raises :class:`StateError` and changes
        nothing.
        """
        if new not in TRANSITIONS.get(old, ()):
            raise StateError(f"illegal transition {old!r} -> {new!r}")
        with self._connect() as conn:
            return self._transition(conn, job_id, old, new, error)

    @staticmethod
    def _transition(conn: sqlite3.Connection, job_id: str, old: str,
                    new: str, error: Optional[str] = None) -> bool:
        if new == "running":
            stamp, when = "started_at", time.time()
        elif new == "queued":
            stamp, when = "started_at", None  # as recover() leaves it
        else:
            stamp, when = "finished_at", time.time()
        cur = conn.execute(
            f"UPDATE jobs SET state = ?, error = ?, {stamp} = ? "
            "WHERE id = ? AND state = ?", (new, error, when, job_id, old))
        if cur.rowcount == 0:
            return False
        if new == "cancelled":
            conn.execute(
                "UPDATE cells SET state = 'cancelled' WHERE job_id = ? "
                "AND state IN ('pending', 'running')", (job_id,))
        return True

    def claim_next_job(self) -> Optional[Dict[str, Any]]:
        """Move the next queued job to ``running``; return it, or None.

        Highest priority first, then submission order. The move is a
        compare-and-set made under the same lock as the pick, so a job
        cancelled while queued is never claimed.
        """
        with self._connect() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' "
                "ORDER BY priority DESC, seq LIMIT 1").fetchone()
            if row is None or not self._transition(conn, row["id"],
                                                   "queued", "running"):
                return None
            return self._load_job(conn, row["id"])

    def queued_count(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM jobs "
                                "WHERE state = 'queued'").fetchone()[0]

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._connect() as conn:
            return self._load_job(conn, job_id)

    def _load_job(self, conn: sqlite3.Connection,
                  job_id: str) -> Optional[Dict[str, Any]]:
        row = conn.execute("SELECT * FROM jobs WHERE id = ?",
                           (job_id,)).fetchone()
        if row is None:
            return None
        cells = conn.execute(
            "SELECT * FROM cells WHERE job_id = ? ORDER BY rowid",
            (job_id,)).fetchall()
        return self._job_dict(row, cells)

    def list_jobs(self, state: Optional[str] = None,
                  limit: int = 50) -> List[Dict[str, Any]]:
        query = "SELECT * FROM jobs"
        params: Tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY seq DESC LIMIT ?"
        with self._connect() as conn:
            rows = conn.execute(query, params + (limit,)).fetchall()
            counts = conn.execute(
                "SELECT job_id, state, COUNT(*) AS n FROM cells "
                "GROUP BY job_id, state").fetchall()
        by_job: Dict[str, Dict[str, int]] = {}
        for entry in counts:
            by_job.setdefault(entry["job_id"], {})[entry["state"]] = \
                entry["n"]
        jobs = []
        for row in rows:
            job = self._job_dict(row, None)
            job["cell_counts"] = by_job.get(row["id"], {})
            jobs.append(job)
        return jobs

    @staticmethod
    def _job_dict(row: sqlite3.Row,
                  cells: Optional[List[sqlite3.Row]]) -> Dict[str, Any]:
        out = {
            "id": row["id"], "state": row["state"],
            "priority": row["priority"],
            "spec": json.loads(row["spec_json"]),
            "submitted_at": row["submitted_at"],
            "started_at": row["started_at"],
            "finished_at": row["finished_at"],
            "error": row["error"],
        }
        if cells is not None:
            out["cells"] = [
                {"label": c["label"], "state": c["state"],
                 "source": c["source"], "attempts": c["attempts"],
                 "retries": c["retries"], "timeouts": c["timeouts"],
                 "wall_time": c["wall_time"], "error": c["error"],
                 "cache_key": c["cache_key"]}
                for c in cells]
            counts: Dict[str, int] = {}
            for cell in out["cells"]:
                counts[cell["state"]] = counts.get(cell["state"], 0) + 1
            out["cell_counts"] = counts
        return out

    # -- cells -------------------------------------------------------------

    def update_cell(self, job_id: str, label: str, **fields: Any) -> None:
        with self._connect() as conn:
            self._update_cell(conn, job_id, label, fields)

    def store_cell_result(self, job_id: str, label: str, cache_key: str,
                          result: RunResult, **fields: Any) -> str:
        """An executed cell's outcome: its result and its ledger row.

        One transaction stores the run (as :meth:`store_run` does) and
        sets the cell's ``fields``, so a crash keeps both or neither.
        Returns the result's digest.
        """
        row = self._run_row(cache_key, result)
        with self._connect() as conn:
            conn.execute(_INSERT_RUN, row)
            self._update_cell(conn, job_id, label, fields)
        return row[1]

    def serve_cell_from_store(self, job_id: str, label: str,
                              cache_key: str) -> bool:
        """Resolve a cell from a stored run; False if none is stored.

        One transaction refreshes the run's recency and marks the cell
        ``done`` with source ``repository``; a miss writes nothing.
        """
        with self._connect() as conn:
            if not self._touch(conn, cache_key):
                return False
            self._update_cell(conn, job_id, label,
                              {"state": "done", "source": "repository"})
        return True

    @staticmethod
    def _update_cell(conn: sqlite3.Connection, job_id: str, label: str,
                     fields: Dict[str, Any]) -> None:
        allowed = {"state", "source", "attempts", "retries", "timeouts",
                   "wall_time", "error"}
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"unknown cell fields: {sorted(unknown)}")
        sets = ", ".join(f"{name} = ?" for name in fields)
        conn.execute(
            f"UPDATE cells SET {sets} WHERE job_id = ? AND label = ?",
            tuple(fields.values()) + (job_id, label))

    def results_for_job(self, job_id: str,
                        labels: Optional[Iterable[str]] = None
                        ) -> Dict[str, Dict[str, Any]]:
        """label -> {result record, digest, execution metadata}.

        Only terminal cells appear; a cell whose run record is missing
        (failed/cancelled) carries ``result: None``.
        """
        wanted = set(labels) if labels is not None else None
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT c.*, r.digest AS digest, "
                "r.result_json AS result_json "
                "FROM cells c LEFT JOIN runs r "
                "ON c.cache_key = r.cache_key "
                "WHERE c.job_id = ? ORDER BY c.rowid", (job_id,)).fetchall()
        out: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            if wanted is not None and row["label"] not in wanted:
                continue
            done = row["state"] == "done"
            out[row["label"]] = {
                "state": row["state"],
                "source": row["source"],
                "attempts": row["attempts"],
                "retries": row["retries"],
                "timeouts": row["timeouts"],
                "wall_time": row["wall_time"],
                "error": row["error"],
                "digest": row["digest"] if done else None,
                "result": (json.loads(row["result_json"])
                           if done and row["result_json"] else None),
            }
        return out

    # -- restart recovery --------------------------------------------------

    def recover(self) -> None:
        """Re-queue jobs a previous process left unfinished.

        ``running`` jobs go back to ``queued`` and their ``running``
        cells back to ``pending`` (results already persisted keep their
        cells ``done``, so recovered jobs only re-run what was actually
        in flight).
        """
        with self._connect() as conn:
            conn.execute(
                "UPDATE cells SET state = 'pending' WHERE state = 'running' "
                "AND job_id IN (SELECT id FROM jobs WHERE state IN "
                "('queued', 'running'))")
            conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL "
                "WHERE state = 'running'")
