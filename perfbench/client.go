package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The serving workload's load generator runs in a process of its own. In
// the daemon's process its timers could fire only when a Go processor was
// free, and a 64-point batch's assign workers hold both for ~25 ms: the
// generator then ran up to ~19 ms late at the 99th percentile. As its own
// process it is woken by the operating system, as a remote client would be.
// The benchmark starts one child per step with clientArg, sends the step
// on standard input and reads the outcomes back from standard output.
const clientArg = "--serve-client"

// clientRequest is one scheduled operation as the generator sends it. Run
// and Span, when non-zero, travel as trace headers.
type clientRequest struct {
	Kind      int
	Due       time.Duration // offset from the step's start
	Body      []byte        // nil for a swap, which sends the job's artifact
	Run, Span int64
}

// clientOutcome is what became of one request. Times are Unix nanoseconds,
// which both processes read from the same clock.
type clientOutcome struct {
	DueAt, Sent, Done int64
	Late              time.Duration // how late the generator released it
	Status            int
	Degraded          bool
	Labels            []int32
	Err               string
	Unsent            bool // still queued when the step ended
}

type clientJob struct {
	URL      string
	Workers  int
	Artifact []byte
	Dur      time.Duration
	Flood    bool
	Reqs     []clientRequest
}

type clientReply struct {
	Start    int64 // the step's start, Unix nanoseconds
	Outcomes []clientOutcome
}

// playInChild runs one step in a child process and waits for it to exit.
func playInChild(job clientJob) (clientReply, error) {
	var in, out bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(job); err != nil {
		return clientReply{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return clientReply{}, err
	}
	cmd := exec.Command(exe, clientArg)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = &in, &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return clientReply{}, fmt.Errorf("load generator: %w", err)
	}
	var reply clientReply
	if err := gob.NewDecoder(&out).Decode(&reply); err != nil {
		return clientReply{}, fmt.Errorf("load generator reply: %w", err)
	}
	return reply, nil
}

// clientMain is the child's side: it reads one job, plays it and writes
// the outcomes.
func clientMain(r io.Reader, w io.Writer) error {
	var job clientJob
	if err := gob.NewDecoder(r).Decode(&job); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(play(job))
}

// play releases each request at its due time into a queue that
// job.Workers connections drain; a flood step releases them all at the
// start. Requests still queued when the step's time is up are not sent.
func play(job clientJob) clientReply {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: job.Workers, MaxIdleConnsPerHost: job.Workers, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	outs := make([]clientOutcome, len(job.Reqs))
	queue := make(chan int, len(job.Reqs)) // sized to the number of sends
	var over atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < job.Workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if over.Load() {
					outs[i].Unsent = true
					continue
				}
				send(client, job, &job.Reqs[i], &outs[i])
			}
		}()
	}
	start := time.Now()
	for i := range job.Reqs {
		due := start
		if !job.Flood {
			due = start.Add(job.Reqs[i].Due)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].DueAt, outs[i].Late = due.UnixNano(), time.Since(due)
		queue <- i
	}
	if d := time.Until(start.Add(job.Dur)); d > 0 {
		time.Sleep(d)
	}
	over.Store(true)
	close(queue)
	wg.Wait()
	return clientReply{Start: start.UnixNano(), Outcomes: outs}
}

func send(client *http.Client, job clientJob, rq *clientRequest, out *clientOutcome) {
	method, path, body := http.MethodPost, "/v1/assign", rq.Body
	if rq.Kind == kindSwap {
		method, path, body = http.MethodPut, "/v1/models/"+modelName, job.Artifact
	}
	req, err := http.NewRequest(method, job.URL+path, bytes.NewReader(body))
	if err != nil {
		out.Err = err.Error()
		return
	}
	if rq.Span != 0 {
		req.Header.Set("X-Bench-Run", strconv.FormatInt(rq.Run, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(rq.Span, 10))
	}
	out.Sent = time.Now().UnixNano()
	err = roundTrip(client, req, rq.Kind, out)
	out.Done = time.Now().UnixNano()
	if err != nil {
		out.Err = err.Error()
	}
}

func roundTrip(client *http.Client, req *http.Request, kind int, out *clientOutcome) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	out.Status = resp.StatusCode
	if kind == kindSwap || resp.StatusCode != http.StatusOK {
		return nil
	}
	var ar assignResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		return err
	}
	out.Labels, out.Degraded = ar.Labels, ar.Degraded
	return nil
}
