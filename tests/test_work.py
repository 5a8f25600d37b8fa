import os
import time

import pytest

from attdiag.errors import ValidationError, WorkerError
from attdiag.work import COUNTS, Forked
from conftest import counted, deadline, reaped


def _count_and_return(value):
    COUNTS["matches"] += 2
    return value


def _count_and_raise():
    COUNTS["matches"] += 1
    raise ValidationError("bad replicate")


def test_forked_returns_the_value_and_the_workers_ledger():
    value, delta = counted(lambda: Forked(_count_and_return, {"x": [1.5]}).result())
    assert value == {"x": [1.5]}
    assert delta == {"matches": 2}


def test_forked_raises_the_workers_error_with_its_ledger():
    worker = Forked(_count_and_raise)
    before = COUNTS.copy()
    with pytest.raises(ValidationError, match="bad replicate"):
        worker.result()
    assert COUNTS - before == {"matches": 1}
    worker.close()  # already reaped: nothing to do


def test_a_dead_worker_is_a_worker_error():
    worker = Forked(os._exit, 4)
    with pytest.raises(WorkerError, match=r"died .*exit code 4"), deadline(60):
        worker.result()


def test_close_kills_and_reaps_a_running_worker():
    worker = Forked(time.sleep, 600)
    pid = worker._pid
    with deadline(60):
        worker.close()
    worker.close()
    assert reaped(pid)
