#!/usr/bin/env python3
"""Monitoring a *running* distributed data service against its model.

The paper's motivation (section I): privacy risks should be monitored
"during the lifetime of the service". This example executes real
service sessions over policy-enforced datastores, feeds the emitted
events to a privacy monitor walking the LTS with the user's risk
table, and shows the alerts when a risk-annotated read actually
happens — and when the system diverges from its model entirely.

Run with ``python examples/runtime_monitoring.py``.
"""

from repro.casestudies import (
    MEDICAL_SERVICE,
    build_surgery_system,
    surgery_patient,
    synthetic_ehr_rows,
)
from repro.core import GenerationOptions, ModelGenerator
from repro.core.risk import DisclosureRiskAnalyzer
from repro.monitor import (
    PrivacyMonitor,
    ServiceRuntime,
    disclose_event,
    read_event,
)


def main():
    system = build_surgery_system()
    patient = surgery_patient("mr-jones")

    # Design time: generate the model and analyse it for this user.
    analyzer = DisclosureRiskAnalyzer(system)
    lts = ModelGenerator(system).generate(GenerationOptions(
        services=tuple(patient.agreed_services),
        include_potential_reads=True,
        potential_read_actors=frozenset(
            patient.non_allowed_actors(system))))
    report = analyzer.analyse(patient, lts=lts)
    print(f"design-time analysis: max risk {report.max_level.value} "
          f"({len(report.events)} risk events annotated)")
    print()

    # Runtime: the monitor walks the LTS live, alerting from the
    # report's risk table.
    monitor = PrivacyMonitor(lts,
                             acceptable_risk=patient.acceptable_risk,
                             on_alert=lambda a: print("  !", a.describe()),
                             risks=report.annotations)
    runtime = ServiceRuntime(system, monitor=monitor)

    print("=== A normal Medical Service session ===")
    events = runtime.run_service(MEDICAL_SERVICE, {
        "name": "Jones", "dob": "1975-03-14",
        "medical_issues": "persistent cough",
    }, originated_values={"diagnosis": "bronchitis",
                          "treatment": "antibiotics"})
    for event in events:
        print("  ", event.describe())
    print("state:", monitor.current_state.name(),
          "| alerts so far:", len(monitor.alerts))
    print()

    print("=== The Administrator reads the EHR (risk event!) ===")
    admin_read = read_event(
        "Administrator", "EHR",
        ["diagnosis", "dob", "medical_issues", "name", "treatment"])
    monitor.observe(admin_read)
    print("critical alerts:", len(monitor.critical_alerts()))
    print()

    print("=== Unmodelled behaviour (divergence) ===")
    rogue = disclose_event("Nurse", "Receptionist", ["treatment"])
    monitor.observe(rogue)
    print()

    print("=== What the stores actually hold ===")
    ehr = runtime.store("EHR")
    print(f"EHR: {len(ehr)} record(s); audit trail:")
    for op in ehr.audit_trail:
        print(f"  {op.actor}: {op.permission.value} "
              f"{list(op.fields)} ({op.description})")
    print()

    print("=== Bulk sessions (simulated population) ===")
    fresh_monitor = PrivacyMonitor(lts)
    bulk = ServiceRuntime(system, monitor=None)
    for row in synthetic_ehr_rows(25, seed=4):
        bulk.run_service(MEDICAL_SERVICE, {
            "name": row["name"], "dob": row["dob"],
            "medical_issues": row["medical_issues"],
        }, originated_values={"diagnosis": row["diagnosis"],
                              "treatment": row["treatment"]})
    print(f"{len(bulk.events)} events across 25 sessions; "
          f"EHR now holds {len(bulk.store('EHR'))} records")


if __name__ == "__main__":
    main()
