import dynamolab


def test_public_names_resolve_once():
    names = dynamolab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dynamolab, name) is not None
