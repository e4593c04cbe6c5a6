"""apertile's one process primitive: a fork with a pipe each way."""

import os
import pickle


def fork(work, inherited=()):
    """Run work(inbox, outbox) in a forked child; return (pid, to_child,
    from_child), this process's pipe ends, as binary files. An exception that
    ends `work` reaches `outbox` pickled as (False, error), and the child exits
    with status 1. The child first closes `inherited`, the pipe ends of earlier
    children here, so that each inbox ends when this process closes its end."""
    inbox_r, inbox_w = os.pipe()
    outbox_r, outbox_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns into the caller's stack
        status = 1
        try:
            os.close(inbox_w)
            os.close(outbox_r)
            for fh in inherited:
                fh.close()
            with open(inbox_r, "rb") as inbox, open(outbox_w, "wb") as outbox:
                try:
                    work(inbox, outbox)
                    status = 0
                except BaseException as err:  # the child ends below, whatever it was
                    pickle.dump((False, err), outbox)
        finally:
            os._exit(status)
    os.close(inbox_r)
    os.close(outbox_w)
    return pid, open(inbox_w, "wb"), open(outbox_r, "rb")
