"""Paper Table I, read off the launch spans of what the abstractions run."""

from repro.adapters import get_adapter
from repro.core.abstractions import (
    global_pipeline,
    iterative,
    locality,
    map_and_process,
)
from repro.core.functor import FnDomain, FnIterative, FnLocality


def test_table1_mapping_matches_paper(rng, launch_spans):
    """Table I: Locality/Iterative → GEM; Map&Process/Global → DEM."""
    data = rng.normal(size=(8, 8))
    launches = {
        "locality": lambda a: locality(
            data, FnLocality(lambda b: b, "locality"), (4, 4), adapter=a),
        "iterative": lambda a: iterative(
            data, FnIterative(lambda v: v, "iterative"), adapter=a),
        "map_and_process": lambda a: map_and_process(
            data, lambda d: [d[:4], d[4:]], lambda s, i: s, adapter=a),
        "global_pipeline": lambda a: global_pipeline(
            data, FnDomain(lambda d: d, name="global_pipeline"), adapter=a),
    }
    models = {}
    for name, launch in launches.items():
        launch(get_adapter("cuda"))
        models[name] = [e.name.split(".")[0].upper() for e in launch_spans()]
    assert models == {
        "locality": ["GEM"],
        "iterative": ["GEM"],
        "map_and_process": ["DEM"],
        "global_pipeline": ["DEM"],
    }
