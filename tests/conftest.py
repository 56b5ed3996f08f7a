"""Shared fixtures: a loopback reference broker per test.

``HYPOTHESIS_PROFILE=ci`` loads the ci profile: more examples for every
property that does not set its own count, and for the sweeps (the codec
differential, parser totality) that take the larger of theirs and it.
"""

import os

import pytest
from hypothesis import settings

from mqttprobe import refbroker
from mqttprobe.runner import Endpoint

settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def broker():
    srv = refbroker.serve(host="127.0.0.1", port=0)
    yield srv
    srv.stop()


@pytest.fixture()
def endpoint(broker):
    return Endpoint(host="127.0.0.1", port=broker.port)
