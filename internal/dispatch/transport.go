package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Transport opens the protocol stream of one attempt: the worker's
// hello, heartbeats and final res or err line for spec, computed by a
// worker whose identity for this attempt is workerID. Cancelling ctx
// must end the stream (kill the process, abort the request); Close
// releases it. An error means the attempt never started: the cell goes
// back to the queue uncharged and the slot takes a strike, unless the
// error is a cellError, which is the cell's own clean failure.
type Transport func(ctx context.Context, spec CellSpec, workerID int) (io.ReadCloser, error)

// Slot is one worker slot: the transport its attempts run through and
// the name logs give it. A slot runs one attempt at a time.
type Slot struct {
	Name string
	Open Transport
}

// cellError is a transport's report that the cell itself was refused
// before it ran (a daemon's 4xx answer): the cell's outcome, as an err
// line would be, not a fault of the slot.
type cellError struct{ msg string }

func (e *cellError) Error() string { return e.msg }

// ProcTransport runs each attempt as a fresh worker process: argv[0] is
// the binary (usually os.Executable()), argv[1:] its arguments, plus
// "-workerid <id>" so fault sites and logs can name the attempt. The
// process inherits the parent's environment plus extraEnv, reads the
// CellSpec as JSON on stdin and writes the stream to stdout; its stderr
// passes through to the coordinator's. The process is bound to ctx:
// an expired lease, or a coordinator that shuts down, kills it.
func ProcTransport(argv []string, extraEnv []string) Transport {
	return func(ctx context.Context, spec CellSpec, workerID int) (io.ReadCloser, error) {
		if len(argv) == 0 {
			return nil, errors.New("dispatch: ProcTransport needs a command")
		}
		in, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		args := append(append([]string{}, argv[1:]...), "-workerid", strconv.Itoa(workerID))
		cmd := exec.CommandContext(ctx, argv[0], args...)
		cmd.Env = append(os.Environ(), extraEnv...)
		cmd.Stdin = bytes.NewReader(in)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("dispatch: worker stdout: %w", err)
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("dispatch: starting worker: %w", err)
		}
		return procStream{out, cmd}, nil
	}
}

// procStream is a worker process's stdout; Close reaps the process
// (the coordinator cancels the attempt's ctx first, which kills it if
// it is still running).
type procStream struct {
	io.Reader
	cmd *exec.Cmd
}

func (p procStream) Close() error { return p.cmd.Wait() }

// HTTPTransport runs each attempt as one POST /v1/cells to a splitlockd
// daemon at baseURL: the request body is the CellSpec and the response
// body is the stream (NDJSON, heartbeating while the cell queues and
// runs). The daemon serves anonymously, so workerID is not sent. A
// refused connection, a draining daemon's 503 or any other non-4xx
// answer means the attempt never started; so does a 404, which says the
// address serves no /v1/cells at all. Any other 4xx is the daemon
// refusing the cell itself, and its error text is the cell's error.
func HTTPTransport(baseURL string) Transport {
	base := strings.TrimRight(baseURL, "/")
	return func(ctx context.Context, spec CellSpec, _ int) (io.ReadCloser, error) {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cells", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("dispatch: %s: %w", base, err)
		}
		if resp.StatusCode == http.StatusOK {
			return resp.Body, nil
		}
		defer resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 || resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("dispatch: %s /v1/cells: %s", base, resp.Status)
		}
		var e struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			e.Error = strings.TrimSpace(string(raw))
		}
		return nil, &cellError{fmt.Sprintf("%s /v1/cells: %s: %s", base, resp.Status, e.Error)}
	}
}
