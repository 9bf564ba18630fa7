"""``SliceData``: a tuple-backed record with the dataclass's contract."""

import numpy as np
import pytest

from repro.cluster import SliceData
from repro.cluster.datanode import _slice_data

PAYLOAD = np.arange(16, dtype=np.uint8)


def test_keyword_and_positional_construction_agree():
    by_keyword = SliceData(stripe_id="s", pipeline_id=7, source=4, start=0,
                           stop=16, payload=PAYLOAD, repair_id="s/r1",
                           checksum=99)
    positional = SliceData("s", 7, 4, 0, 16, PAYLOAD, "s/r1", 99)
    assert by_keyword == positional
    assert (by_keyword.stripe_id, by_keyword.pipeline_id, by_keyword.source,
            by_keyword.start, by_keyword.stop, by_keyword.repair_id,
            by_keyword.checksum) == ("s", 7, 4, 0, 16, "s/r1", 99)
    assert by_keyword.payload is PAYLOAD


def test_repair_id_and_checksum_are_required():
    """Every sender names its repair epoch and checksums its payload."""
    with pytest.raises(TypeError):
        SliceData("s", 7, source=4, start=0, stop=16, payload=PAYLOAD)
    with pytest.raises(TypeError):
        SliceData("s", 7, 4, 0, 16, PAYLOAD, "s/r1")  # no checksum
    with pytest.raises(TypeError):
        SliceData("s", 7, source=4, start=0, stop=16)  # payload is required


def test_the_sender_path_builds_the_same_record():
    built = _slice_data(("s", 7, 4, 0, 16, PAYLOAD, "s/r1", 5))
    assert type(built) is SliceData
    assert built == SliceData("s", 7, 4, 0, 16, PAYLOAD, "s/r1", checksum=5)


def test_immutable_and_slotted():
    data = SliceData("s", 7, 4, 0, 16, PAYLOAD, "s/r1", 5)
    with pytest.raises(AttributeError):
        data.checksum = 1
    with pytest.raises(AttributeError):
        data.extra = 1
    assert not hasattr(data, "__dict__")


def test_repr_leaves_the_payload_out():
    data = SliceData("s", 7, 4, 0, 16, PAYLOAD, "s/r1", checksum=5)
    assert repr(data) == (
        "SliceData(stripe_id='s', pipeline_id=7, source=4, start=0, "
        "stop=16, repair_id='s/r1', checksum=5)"
    )
