import exsquares

# what bench/workloads.py calls on the package
BENCH_NAMES = ("generate_method1", "validate_system", "eval_family",
               "cross_check", "list_families", "pipeline_n5", "pipeline_n6",
               "pipeline_n7", "pipeline_n8", "derive_n5", "derive_n6",
               "derive_n7", "derive_n8")


def test_every_exported_name_resolves():
    assert len(set(exsquares.__all__)) == len(exsquares.__all__)
    for name in exsquares.__all__:
        assert getattr(exsquares, name) is not None, name


def test_bench_names_are_exported():
    for name in BENCH_NAMES:
        assert name in exsquares.__all__, name
        assert callable(getattr(exsquares, name)), name
