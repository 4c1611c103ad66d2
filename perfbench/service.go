package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/resultstore"
	"profipy/internal/saas"
	"profipy/internal/scheduler"
	"profipy/internal/trace"
)

// service is an in-process saas.Server behind a loopback HTTP listener,
// with a persistent store on a data dir inside the checkout.
type service struct {
	srv    *saas.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
	// want maps every campaign submitted to this server to its plan
	// length, for the reopened-store check.
	want map[string]int

	// fsyncMark and jobMark are the store's fsync count and the number
	// of jobs submitted when markFsyncs ran.
	fsyncMark float64
	jobMark   int
	lastJob   string
}

// startService starts a server sized like the other workloads (Cores =
// nproc) with one scheduler worker, so one campaign runs at a time.
func startService(cores int) (*service, error) {
	dir, err := os.MkdirTemp(benchDir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := saas.NewServerWithOptions(saas.Options{Cores: cores, Workers: 1, DataDir: dir})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return &service{srv: srv, hs: hs, client: hs.Client(), dir: dir, want: map[string]int{}}, nil
}

// stop closes the listener (waiting for in-flight requests) and then the
// server (draining the scheduler and sealing the store).
func (s *service) stop() {
	s.hs.Close()
	s.srv.Close()
}

// job runs one op through the API: POST the campaign, follow its record
// stream to the end, then fetch the campaign view.
func (s *service) job(spec opSpec, m *meter, planLen int) (*opOut, error) {
	req, err := saas.DemoCampaignRequest(spec.kind, spec.seed)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	out := &opOut{spec: spec}
	start := time.Now()
	resp, err := s.client.Post(s.hs.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var accepted struct {
		Job string `json:"job"`
	}
	err = decodeBody(resp, http.StatusAccepted, &accepted)
	out.submit = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	camp := "camp-" + strings.TrimPrefix(accepted.Job, "job-")
	s.want[camp] = planLen
	s.lastJob = accepted.Job
	if err := s.follow(camp, start, out, m); err != nil {
		return nil, fmt.Errorf("stream %s: %w", camp, err)
	}
	fetchStart := time.Now()
	resp, err = s.client.Get(s.hs.URL + "/api/v1/campaigns/" + camp)
	if err != nil {
		return nil, err
	}
	out.view, err = readBody(resp, http.StatusOK)
	out.fetch = time.Since(fetchStart)
	out.dur = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("campaign view: %w", err)
	}
	return out, nil
}

// follow reads a campaign's NDJSON record stream until the campaign
// ends. The campaign appears in the store only once the scheduler has
// started the job, so a 404 is retried after a short pause.
func (s *service) follow(camp string, start time.Time, out *opOut, m *meter) error {
	pause := 100 * time.Microsecond
	for {
		resp, err := s.client.Get(s.hs.URL + "/api/v1/campaigns/" + camp + "/stream")
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if time.Since(start) > time.Minute {
				return errors.New("campaign never started")
			}
			time.Sleep(pause)
			pause = min(2*pause, time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 1 {
				if out.first == 0 {
					out.first = time.Since(start)
				}
				m.sampleHeap()
				out.streamBytes += len(line)
				out.lines = append(out.lines, line[:len(line)-1])
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// campaignView is the GET /api/v1/campaigns/{id} body: the report's
// fields plus the campaign's phase timeline.
type campaignView struct {
	analysis.Report
	Phases []trace.Span `json:"phases"`
}

// decodeServiceOut decodes a service op's streamed records and its
// view, for the same checks the in-process ops get.
func decodeServiceOut(out *opOut) error {
	out.records = make([]analysis.Record, len(out.lines))
	for i, line := range out.lines {
		if err := json.Unmarshal(line, &out.records[i]); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	var view campaignView
	if err := json.Unmarshal(out.view, &view); err != nil {
		return fmt.Errorf("campaign view: %w", err)
	}
	out.report = &view.Report
	for _, sp := range view.Phases {
		if sp.Name == "execute" {
			out.execTime = time.Duration(sp.EndNS - sp.StartNS)
		}
	}
	return nil
}

// markFsyncs remembers the store's fsync count and the jobs submitted
// so far, before the timed ops.
func (s *service) markFsyncs() error {
	v, err := s.fsyncs()
	s.fsyncMark, s.jobMark = v, len(s.want)
	return err
}

// fsyncsSinceMark waits until the last job has finished (its terminal
// journal entry is one of the job's durability points) and returns the
// fsyncs since markFsyncs, scraped from /metrics, and the number of
// jobs submitted since.
func (s *service) fsyncsSinceMark() (fsyncs float64, jobs int, err error) {
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := s.client.Get(s.hs.URL + "/api/v1/jobs/" + s.lastJob)
		if err != nil {
			return 0, 0, err
		}
		var st saas.JobStatus
		if err := decodeBody(resp, http.StatusOK, &st); err != nil {
			return 0, 0, err
		}
		if st.State == scheduler.Done {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("job %s still %s", s.lastJob, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	v, err := s.fsyncs()
	return v - s.fsyncMark, len(s.want) - s.jobMark, err
}

// fsyncs scrapes profipy_resultstore_fsyncs_total from /metrics.
func (s *service) fsyncs() (float64, error) {
	resp, err := s.client.Get(s.hs.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	data, err := readBody(resp, http.StatusOK)
	if err != nil {
		return 0, err
	}
	const name = "profipy_resultstore_fsyncs_total "
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("no " + strings.TrimSpace(name) + " in /metrics")
}

// checkReopen opens the stopped server's data dir afresh and checks that
// it lists every submitted job as done with its full record count and
// nothing left pending in the journal.
func (s *service) checkReopen() error {
	st, err := resultstore.Open(s.dir)
	if err != nil {
		return err
	}
	defer st.Close()
	if n := len(st.List()); n != len(s.want) {
		return fmt.Errorf("%d campaigns stored, %d submitted", n, len(s.want))
	}
	for camp, want := range s.want {
		meta, ok := st.Get(camp)
		if !ok {
			return fmt.Errorf("campaign %s missing", camp)
		}
		if meta.Status != resultstore.StatusDone || meta.Records != int64(want) {
			return fmt.Errorf("campaign %s is %s with %d records, want done with %d", camp, meta.Status, meta.Records, want)
		}
	}
	if p := st.PendingJobs(); len(p) > 0 {
		return fmt.Errorf("%d jobs still pending in the journal", len(p))
	}
	return nil
}

func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	data, err := readBody(resp, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
