"""Fixture: thread-blocking call inside ``async def`` (R-ASYNC).

``time.sleep`` parks the whole event loop — no other frame is routed
while this coroutine "waits".
"""

import time


async def lazy_flush(payload):
    time.sleep(0.01)
    return payload
