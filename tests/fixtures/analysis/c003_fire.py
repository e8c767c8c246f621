# repro: fixture as=src/repro/service/fixture_c003.py
"""C003 fire: blocking calls in async bodies stall the one event loop."""

import time
from repro.core.framing import dial


async def throttle(seconds):
    time.sleep(seconds)  # analyzer: fires here


async def probe(address):
    # The framing helper hides ``socket.create_connection``; the rule
    # still resolves the bare name through its from-import.
    dial(address, 1.0)  # analyzer: fires here
