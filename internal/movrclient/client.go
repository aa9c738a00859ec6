// Package movrclient is the Go client for the movrd v1 job API: submit
// simulation specs and block for results, stream per-session progress
// events, and scrape metrics. It is the one in-repo consumer idiom for
// the HTTP surface — examples/serve and cmd/movrload both drive movrd
// through it, so any drift between server and client breaks visibly in
// tests.
//
// Submissions retry transparently on 429 queue_full backpressure,
// honoring the server's Retry-After hint with exponential backoff
// between attempts. All other non-2xx responses surface as *APIError
// carrying the stable machine-readable code from the v1 error
// envelope.
package movrclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one movrd instance. The zero value is not usable;
// call New. Fields may be adjusted before first use.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:8477".
	BaseURL string

	// HTTPClient defaults to a client with no overall timeout (waits
	// and event streams are long-lived; use contexts to bound calls).
	HTTPClient *http.Client

	// MaxRetries bounds transparent retries of 429 queue_full
	// responses. 0 disables retrying; the 429 surfaces as *APIError.
	MaxRetries int

	// RetryBackoff is the first retry delay when the server sends no
	// Retry-After hint; it doubles per attempt, capped at 2s.
	RetryBackoff time.Duration
}

// New returns a client for the daemon at baseURL with modest default
// backpressure handling (4 retries, 100ms initial backoff).
func New(baseURL string) *Client {
	return &Client{
		BaseURL:      strings.TrimRight(baseURL, "/"),
		HTTPClient:   &http.Client{},
		MaxRetries:   4,
		RetryBackoff: 100 * time.Millisecond,
	}
}

// APIError is a non-2xx response decoded from the v1 error envelope.
// Branch on Code — the stable machine-readable identifier — never on
// the human-readable message.
type APIError struct {
	StatusCode int    // HTTP status
	Code       string // invalid_spec, queue_full, not_found, ...
	Message    string
	Detail     string
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *APIError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("movrd: %s (%s): %s", e.Message, e.Code, e.Detail)
	}
	return fmt.Sprintf("movrd: %s (%s)", e.Message, e.Code)
}

// Job mirrors the server's job-status document. Result is the raw
// result JSON, byte-identical across fresh runs, cache hits, and
// coalesced followers of the same spec.
type Job struct {
	ID            string          `json:"id"`
	State         string          `json:"state"` // queued|running|done|failed|canceled
	Cached        bool            `json:"cached"`
	CoalescedWith string          `json:"coalesced_with,omitempty"`
	SpecSHA       string          `json:"spec_sha256"`
	Spec          json.RawMessage `json:"spec"`
	Error         string          `json:"error,omitempty"`
	ElapsedMS     int64           `json:"elapsed_ms,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
	ResultSHA     string          `json:"result_sha256,omitempty"`

	// CacheDisposition echoes the submit response's X-Movr-Cache
	// header ("hit", "coalesced", "miss"); empty on non-submit reads.
	CacheDisposition string `json:"-"`
}

// Event is one entry of a job's progress stream.
type Event struct {
	Seq           int     `json:"seq"`
	Type          string  `json:"type"` // queued|coalesced|running|session|done|failed|canceled
	Session       string  `json:"session,omitempty"`
	Done          int     `json:"done,omitempty"`
	Total         int     `json:"total,omitempty"`
	DeliveredFrac float64 `json:"delivered_frac,omitempty"`
	Primary       string  `json:"primary,omitempty"`
	Cached        bool    `json:"cached,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// SubmitWait posts a job spec and blocks until the job is terminal,
// returning the finished job with its result. spec is any
// JSON-marshalable value — typically a map or a struct mirroring the
// movrd spec schema.
func (c *Client) SubmitWait(ctx context.Context, spec any) (*Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("movrclient: marshal spec: %w", err)
	}
	u := c.BaseURL + "/v1/jobs?wait=1"
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.HTTPClient.Do(req)
		if err != nil {
			return nil, err
		}
		job, err := decodeJob(resp)
		if apiErr, ok := err.(*APIError); ok &&
			apiErr.StatusCode == http.StatusTooManyRequests && attempt < c.MaxRetries {
			delay := apiErr.RetryAfter
			if delay <= 0 {
				delay = backoff
			}
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return job, err
	}
}

// StreamEvents follows a job's progress stream, invoking fn for each
// event in sequence order. It returns nil when the stream ends after
// the job's terminal event, or fn's error if fn rejects an event.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("movrclient: decode event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("movrclient: metrics status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func decodeJob(resp *http.Response) (*Job, error) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, fmt.Errorf("movrclient: decode job: %w", err)
	}
	j.CacheDisposition = resp.Header.Get("X-Movr-Cache")
	return &j, nil
}

// decodeError turns a non-2xx response into *APIError. A body that is
// not a v1 envelope (e.g. a proxy in the path) still yields an APIError
// with the status code and raw body as the message.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Detail = env.Error.Detail
		return apiErr
	}
	apiErr.Code = "unknown"
	apiErr.Message = strings.TrimSpace(string(body))
	return apiErr
}
