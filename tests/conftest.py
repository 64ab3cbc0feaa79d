import os

import pytest
import ray

from data_hub_ejp_xml_pipeline_ray.pipelines.queries import local_s3


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    # one moto S3 server for the whole session; its AWS_* environment is
    # exported BEFORE ray.init because Ray workers only inherit the
    # environment the session starts with
    with local_s3() as env:
        os.environ.update(env)
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        yield
        ray.shutdown()


@pytest.fixture(scope="session")
def tmp_path_factory_bypass(tmp_path_factory):
    """Session-scoped scratch dir usable from hypothesis-driven tests
    (function-scoped tmp_path would trip the fixture health check)."""
    return str(tmp_path_factory.mktemp("hypo_zones"))
