import os
import sys

import pytest

# allow running the suite from a fresh checkout without installing; the tests
# directory itself holds the shared oracles
HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)


@pytest.fixture
def facet_counts(monkeypatch):
    """Count the facet sets facets_by_key keys ("keyed") and the facets built
    from them ("built"), in every module that bound the routine."""
    import tropfan.cycles
    import tropfan.fans
    import tropfan.groebner

    counts = {"keyed": 0, "built": 0}
    original = tropfan.fans.facets_by_key

    def counted_build(build):
        def wrapper():
            counts["built"] += 1
            return build()
        return wrapper

    def counted(cone):
        counts["keyed"] += 1
        return [(key, a, counted_build(build))
                for key, a, build in original(cone)]

    for module in (tropfan.fans, tropfan.groebner, tropfan.cycles):
        monkeypatch.setattr(module, "facets_by_key", counted)
    return counts
