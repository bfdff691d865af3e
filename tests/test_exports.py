import superpbw


def test_every_exported_name_resolves_once():
    names = superpbw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(superpbw, name)]
    assert not missing, missing
