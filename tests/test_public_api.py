"""The README's quick-start path must work from the top-level package."""

import repro


class TestPublicApi:
    def test_quickstart_path(self):
        workload = repro.make_kernel(
            "tatas", "counter", spec=repro.KernelSpec(scale=0.02)
        )
        result = repro.run_workload(workload, "DeNovoSync", repro.config_16(), seed=1)
        assert result.cycles > 0
        assert isinstance(result, repro.RunResult)

    def test_app_entry_point(self):
        workload = repro.make_app("blackscholes", scale=0.05)
        result = repro.run_workload(
            workload, "MESI", repro.config_for_cores(16), seed=1
        )
        assert result.cycles > 0

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_protocol_registry(self):
        assert set(repro.protocols.protocol_names()) >= {
            "MESI", "DeNovoSync0", "DeNovoSync",
        }
        protocol = repro.make_protocol("MESI", repro.config_16())
        assert protocol.name == "MESI"

    def test_version(self):
        assert repro.__version__
