package com.shape.inherit;

public class UserService extends BaseService {
    private int limit;

    public void setLimit(int limit) {
        this.limit = limit;
    }
}
