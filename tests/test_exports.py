import spheretrs


def test_every_export_resolves():
    assert [name for name in spheretrs.__all__ if not hasattr(spheretrs, name)] == []
    assert len(set(spheretrs.__all__)) == len(spheretrs.__all__)
