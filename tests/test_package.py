import pixelret


def test_every_exported_name_resolves():
    missing = [name for name in pixelret.__all__ if not hasattr(pixelret, name)]
    assert missing == []
    assert len(set(pixelret.__all__)) == len(pixelret.__all__)
