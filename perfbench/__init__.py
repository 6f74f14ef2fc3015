"""packcol benchmark of record: ingest / scan / lookup on one client.

Run ``python3 perfbench/run.py --workload <ingest|scan|lookup> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
