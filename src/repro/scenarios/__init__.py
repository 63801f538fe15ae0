"""Scenario engine: time-varying multiprogram schedules.

Public surface of the package:

* :class:`~repro.scenarios.model.Scenario` and the event constructors
  (:func:`core_arrive`, :func:`core_depart`, :func:`phase_change`) —
  the declarative schedule model;
* the preset builders (:func:`consolidation_scenario`,
  :func:`arrival_scenario`, :func:`phased_scenario`);
* the seeded generator (:func:`generate_scenario`, shapes in
  :data:`SCENARIO_SHAPES`) and the committed corpus readers
  (:func:`load_corpus`, :func:`corpus_scenario`, :func:`corpus_names`);
* :class:`~repro.scenarios.timeline.TimelineSample` and the series
  helpers over recorded timelines.

``ExperimentRunner.run(Experiment.for_scenario(...))`` executes a
scenario (with store caching) and ``repro scenario`` drives the
presets, spec files and the corpus suite from the CLI.
"""

from repro.scenarios.corpus import (
    CorpusEntry,
    CorpusError,
    corpus_names,
    corpus_scenario,
    load_corpus,
)
from repro.scenarios.generate import (
    DEFAULT_POOL,
    SCENARIO_SHAPES,
    generate_scenario,
    write_corpus,
)
from repro.scenarios.model import (
    ARRIVE,
    DEPART,
    PHASE,
    Scenario,
    ScenarioEvent,
    arrival_scenario,
    consolidation_scenario,
    core_arrive,
    core_depart,
    phase_change,
    phased_scenario,
)
from repro.scenarios.timeline import (
    TimelineSample,
    frequency_series,
    min_powered_ways,
    powered_ways_dropped,
    powered_ways_series,
    render_timeline,
    samples_with_events,
    static_energy_deltas,
    voltage_series,
)

__all__ = [
    "ARRIVE",
    "DEPART",
    "PHASE",
    "CorpusEntry",
    "CorpusError",
    "DEFAULT_POOL",
    "SCENARIO_SHAPES",
    "Scenario",
    "ScenarioEvent",
    "TimelineSample",
    "arrival_scenario",
    "consolidation_scenario",
    "core_arrive",
    "core_depart",
    "corpus_names",
    "corpus_scenario",
    "frequency_series",
    "generate_scenario",
    "load_corpus",
    "min_powered_ways",
    "phase_change",
    "phased_scenario",
    "powered_ways_dropped",
    "powered_ways_series",
    "render_timeline",
    "samples_with_events",
    "static_energy_deltas",
    "voltage_series",
    "write_corpus",
]
