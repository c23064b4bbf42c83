package fleetsrv

import (
	"context"
	"net/http"
)

// FleetStatus fetches the whole-fleet status view (GET /api/status).
func (c *Client) FleetStatus(ctx context.Context) (*StatusView, error) {
	var st StatusView
	if err := c.do(ctx, http.MethodGet, "/api/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
