"""Shared constants of the federated framework (NVFlare-style vocabulary)."""

from __future__ import annotations

__all__ = ["DataKind", "ReturnCode", "EventType", "ReservedKey", "TaskName",
           "FLRole", "TELEMETRY_TOPIC"]

# Topic of the child -> server telemetry messages: workers stream periodic
# metric/trace deltas during the run and one final snapshot on the way out.
# Lives here (not in runner.py) so the server's receive loop can route it
# without importing the process-runner machinery.
TELEMETRY_TOPIC = "__telemetry__"


class DataKind:
    """What a DXO payload contains."""

    WEIGHTS = "WEIGHTS"
    WEIGHT_DIFF = "WEIGHT_DIFF"
    METRICS = "METRICS"
    COLLECTION = "COLLECTION"


class ReturnCode:
    """Result status carried in a Shareable header."""

    OK = "OK"
    EXECUTION_EXCEPTION = "EXECUTION_EXCEPTION"
    TASK_UNKNOWN = "TASK_UNKNOWN"
    BAD_TASK_DATA = "BAD_TASK_DATA"
    EMPTY_RESULT = "EMPTY_RESULT"
    UNAUTHENTICATED = "UNAUTHENTICATED"


class EventType:
    """Events fired through the FL component tree."""

    START_RUN = "START_RUN"
    END_RUN = "END_RUN"
    ROUND_STARTED = "ROUND_STARTED"
    TASKS_BROADCAST = "TASKS_BROADCAST"
    ROUND_DONE = "ROUND_DONE"
    BEFORE_TRAIN_TASK = "BEFORE_TRAIN_TASK"
    AFTER_TRAIN_TASK = "AFTER_TRAIN_TASK"
    BEFORE_AGGREGATION = "BEFORE_AGGREGATION"
    AFTER_AGGREGATION = "AFTER_AGGREGATION"
    CLIENT_REGISTERED = "CLIENT_REGISTERED"
    BEST_MODEL_UPDATED = "BEST_MODEL_UPDATED"


class ReservedKey:
    """Well-known Shareable header / FLContext property keys."""

    TASK_NAME = "__task_name__"
    MSG_ID = "__msg_id__"
    ATTEMPT = "__attempt__"
    SEND_TS = "__send_ts__"
    TRACE_CTX = "__trace_ctx__"
    ROUND_NUMBER = "__round_number__"
    TOTAL_ROUNDS = "__total_rounds__"
    RETURN_CODE = "__return_code__"
    CLIENT_NAME = "__client_name__"
    NUM_STEPS = "__num_steps_current_round__"
    TOKEN = "__token__"
    CURRENT_ROUND = "current_round"
    # The current task's decoded global model, set by FederatedClient from
    # decode until its result filters have run (DeltaEncode is the reader),
    # then removed, so neither the reply's encode nor an idle client holds it.
    GLOBAL_MODEL = "global_model"
    RUN_DIR = "run_dir"
    ABORT_SIGNAL = "abort_signal"


class TaskName:
    """Task identifiers used by the workflows."""

    TRAIN = "train"
    VALIDATE = "validate"
    SUBMIT_MODEL = "submit_model"


class FLRole:
    """Participant roles in a provisioned project."""

    SERVER = "server"
    CLIENT = "client"
    ADMIN = "admin"
