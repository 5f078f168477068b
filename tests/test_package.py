import qcartan


def test_all_names_resolve_once():
    names = qcartan.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qcartan, name), name
