"""Run concurrent test bodies so a deadlock fails instead of hanging.

Every thread is a daemon and every join has a timeout; while the
threads run, ``faulthandler`` is armed to dump all stacks shortly
before the join gives up, so the failure report of a deadlock shows
where each thread was stuck.
"""

from __future__ import annotations

import faulthandler
import threading
import time
from typing import Any, Callable, Sequence

TIMEOUT_SECONDS = 120.0


def wait_until(predicate: Callable[[], bool], timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail the test if it never does."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def run_bounded(
    targets: Sequence[Callable[[], Any]], timeout: float = TIMEOUT_SECONDS
) -> list[Any]:
    """Run each callable on its own thread; return their results in order.

    A callable that raises re-raises here (first one wins); a thread
    still alive at the timeout fails the test.
    """
    outcomes: list[Any] = [None] * len(targets)
    errors: list[BaseException | None] = [None] * len(targets)

    def runner(i: int, target: Callable[[], Any]) -> None:
        try:
            outcomes[i] = target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[i] = exc

    threads = [
        threading.Thread(target=runner, args=(i, t), daemon=True)
        for i, t in enumerate(targets)
    ]
    faulthandler.dump_traceback_later(max(1.0, timeout - 5.0), exit=False)
    try:
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        faulthandler.cancel_dump_traceback_later()
    stuck = [i for i, thread in enumerate(threads) if thread.is_alive()]
    assert not stuck, f"threads {stuck} still running after {timeout:.0f} s"
    for error in errors:
        if error is not None:
            raise error
    return outcomes
