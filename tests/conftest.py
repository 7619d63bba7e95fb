import pytest

from randcoh import mc


@pytest.fixture
def chunks_of_4096(monkeypatch):
    """mc.CHUNK_ENTRIES at 4096 variates: the chunk size the sample counts of
    a test were chosen for, so that its jobs still cross chunk boundaries
    without drawing four times as many samples."""
    monkeypatch.setattr(mc, "CHUNK_ENTRIES", 1 << 12)
