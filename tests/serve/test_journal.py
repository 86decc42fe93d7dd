"""Crash-safe serving: the job journal and boot-time recovery.

A "restart" here is literal: one service over a journal is closed (or
abandoned mid-job, as a crash would), and a *second* service is built
over the same journal file and cache directory.  The second service must
answer ``/jobs/<id>`` for jobs it never admitted, replay their full
NDJSON history to reconnecting stream clients, and resubmit whatever was
interrupted under its original id.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import BackgroundServer, JobJournal, JobRequest, SweepService

from .conftest import job_payload
from .test_service import canned_task


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "journal.ndjson"


def _service(cache, journal_path, small_stats):
    return SweepService(
        workers=2,
        cache=cache,
        journal=JobJournal(journal_path),
        executor_factory=lambda w: ThreadPoolExecutor(max_workers=w),
        task=canned_task(small_stats),
    )


class TestJournalLog:
    def test_submit_and_events_logged(self, cache, journal_path, small_stats):
        service = _service(cache, journal_path, small_stats)
        record = service.submit(JobRequest.from_payload(job_payload()))
        assert record.wait(30)
        service.close(drain=True)
        entries = JobJournal(journal_path).load()
        assert list(entries) == [record.id]
        entry = entries[record.id]
        # The payload must round-trip through normal validation.
        JobRequest.from_payload(entry["payload"])
        assert entry["events"] == record.events

    def test_torn_tail_dropped(self, journal_path):
        journal = JobJournal(journal_path)
        journal.record_submit("job-000001", {"x": 1})
        journal.close()
        with open(journal_path, "a") as fh:
            fh.write('{"kind":"event","id":"job-0000')
        assert list(journal.load()) == ["job-000001"]


class TestRecovery:
    def test_restart_restores_finished_jobs(self, cache, journal_path, small_stats):
        first = _service(cache, journal_path, small_stats)
        record = first.submit(JobRequest.from_payload(job_payload()))
        assert record.wait(30)
        original = record.snapshot()
        history = list(record.events)
        first.close(drain=True)

        second = _service(cache, journal_path, small_stats)
        summary = second.recover()
        assert summary == {"jobs": 1, "restored": 1, "resubmitted": 0}
        restored = second.job(record.id)
        assert restored is not None and restored.done
        assert restored.snapshot()["results"] == original["results"]
        assert restored.snapshot()["state"] == original["state"]
        # A reconnecting subscriber replays the full history.
        replayed: list[dict] = []
        second.subscribe(restored, replayed.append)
        assert replayed == history
        second.close(drain=True)

    def test_restart_resubmits_interrupted_jobs(
        self, cache, journal_path, small_stats
    ):
        # Emulate a crash mid-job: the journal has the submission (and
        # maybe some progress events) but no terminal record.
        journal = JobJournal(journal_path)
        journal.record_submit("job-000007", job_payload())
        journal.close()

        service = _service(cache, journal_path, small_stats)
        summary = service.recover()
        assert summary == {"jobs": 1, "restored": 0, "resubmitted": 1}
        resumed = service.job("job-000007")
        assert resumed is not None
        assert resumed.wait(30) and resumed.state == "done"
        # Fresh ids never collide with recovered ones.
        new = service.submit(JobRequest.from_payload(job_payload()))
        assert int(new.id.rsplit("-", 1)[1]) > 7
        service.close(drain=True)

    def test_journaled_job_with_removed_config_key_is_skipped(
        self, cache, journal_path, small_stats
    ):
        journal = JobJournal(journal_path)
        journal.record_submit("job-000003", job_payload(shards=2))
        journal.record_submit("job-000004", job_payload())
        journal.close()

        service = _service(cache, journal_path, small_stats)
        summary = service.recover()
        assert summary == {"jobs": 1, "restored": 0, "resubmitted": 1}
        assert service.job("job-000003") is None
        assert service.job("job-000004").wait(30)
        service.close(drain=True)

    def test_resubmitted_job_hits_cache(self, cache, journal_path, small_stats):
        first = _service(cache, journal_path, small_stats)
        record = first.submit(JobRequest.from_payload(job_payload()))
        assert record.wait(30)
        first.close(drain=True)

        # Strip the terminal event so the job looks interrupted, then
        # recover: the point must come back from the cache, not the pool.
        lines = [
            line
            for line in journal_path.read_text().splitlines()
            if '"state":"done"' not in line
        ]
        journal_path.write_text("\n".join(lines) + "\n")
        second = _service(cache, journal_path, small_stats)
        summary = second.recover()
        assert summary["resubmitted"] == 1
        resumed = second.job(record.id)
        assert resumed.wait(30) and resumed.state == "done"
        assert resumed.cached_points == len(resumed.request.points)
        second.close(drain=True)

    def test_recover_without_journal_is_noop(self, cache, small_stats):
        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=lambda w: ThreadPoolExecutor(max_workers=w),
            task=canned_task(small_stats),
        )
        assert service.recover() == {"jobs": 0, "restored": 0, "resubmitted": 0}
        service.close(drain=True)

    def test_metrics_expose_journal_and_cache_write_errors(
        self, cache, journal_path, small_stats
    ):
        service = _service(cache, journal_path, small_stats)
        snapshot = service.metrics_snapshot()
        assert snapshot["journal"]["enabled"] is True
        assert snapshot["journal"]["path"] == str(journal_path)
        assert snapshot["cache"]["write_errors"] == 0
        service.close(drain=True)


class TestRecoveredStreamOverHttp:
    def test_reconnecting_stream_replays_history(
        self, cache, journal_path, small_stats
    ):
        """Full wire-level restart: the NDJSON stream of a job finished
        before the 'crash' replays, terminated by its terminal event."""
        first = _service(cache, journal_path, small_stats)
        record = first.submit(JobRequest.from_payload(job_payload()))
        assert record.wait(30)
        first.close(drain=True)

        second = _service(cache, journal_path, small_stats)
        second.recover()
        with BackgroundServer(second) as server:
            import http.client

            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                conn.request("GET", f"/jobs/{record.id}/stream")
                response = conn.getresponse()
                assert response.status == 200
                events = [
                    json.loads(line) for line in response if line.strip()
                ]
            finally:
                conn.close()
        assert events == record.events
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "done"
