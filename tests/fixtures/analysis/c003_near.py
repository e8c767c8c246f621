# repro: fixture as=src/repro/service/fixture_c003_near.py
"""C003 near-miss: the awaited asyncio primitive yields the loop."""

import asyncio

from repro.core.framing import dial


async def throttle(seconds):
    await asyncio.sleep(seconds)


def probe(address):
    # A blocking dial is fine outside an async body.
    dial(address, 1.0)
